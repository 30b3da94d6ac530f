"""Markdown report generation for planning outcomes.

``write_flow_report`` turns a :class:`PlanningOutcome` into a single
Markdown document — flow summary, Table-1-style rows, per-region
flip-flop accounting, timing analysis of the final circuit — the kind
of artefact a planning tool hands to the floorplanning team.
"""

from __future__ import annotations

from typing import List

from repro.core.planner import PlanningOutcome
from repro.core.timing import timing_report
from repro.tech.params import Technology


def flow_report_markdown(outcome: PlanningOutcome) -> str:
    """Render a full Markdown report for one planning outcome."""
    lines: List[str] = [
        f"# Interconnect planning report — `{outcome.circuit}`",
        "",
        f"- planning iterations: {len(outcome.iterations)}",
        f"- converged (all local area constraints met): **{outcome.converged}**",
    ]
    dec = outcome.foa_decrease()
    if dec is not None:
        lines.append(
            f"- N_FOA decrease, LAC vs min-area (iteration 1): **{100 * dec:.0f}%**"
        )
    lines.append("")

    for it in outcome.iterations:
        t_min = "-" if it.t_min is None else f"{it.t_min:.3f}"
        lines += [
            f"## Iteration {it.index}",
            "",
            f"- periods: T_init = {it.t_init:.3f}, T_min = {t_min}, "
            f"T_clk = {it.t_clk:.3f}",
            f"- chip: {it.floorplan.chip_width:.0f} x "
            f"{it.floorplan.chip_height:.0f} mm "
            f"({it.grid.n_cols} x {it.grid.n_rows} tiles, "
            f"{100 * it.floorplan.dead_area / it.floorplan.chip_area:.0f}% "
            f"dead/channel area)",
            f"- expanded graph: {it.expanded.graph.num_units} units "
            f"({it.expanded.interconnect_unit_count()} interconnect units, "
            f"{it.expanded.n_connections_expanded} connections expanded)",
            "",
        ]
        if it.degraded and it.t_clk_requested is not None:
            lines += [
                f"**Degraded:** requested T_clk = {it.t_clk_requested:.3f} "
                f"was infeasible; retimed at the relaxed period "
                f"{it.t_clk:.3f}.",
                "",
            ]
        if it.infeasible:
            lines += ["**T_clk infeasible after floorplan expansion.**", ""]
            continue

        lines += [
            "| retiming | N_FOA | N_F | N_FN | N_wr | time (s) |",
            "|---|---|---|---|---|---|",
        ]
        if it.min_area:
            r = it.min_area.report
            lines.append(
                f"| min-area | {r.n_foa} | {r.n_f} | {r.n_fn} | — | "
                f"{it.min_area.seconds:.2f} |"
            )
        if it.lac:
            r = it.lac.report
            lines.append(
                f"| LAC | {r.n_foa} | {r.n_f} | {r.n_fn} | {it.lac.n_wr} | "
                f"{it.lac_seconds:.2f} |"
            )
        lines.append("")

        if it.lac:
            lines.append("### Flip-flops per region (LAC)")
            lines.append("")
            lines.append("| region | flip-flops | violation |")
            lines.append("|---|---|---|")
            ordered = sorted(
                it.lac.report.ff_count.items(), key=lambda kv: -kv[1]
            )
            for region, count in ordered[:20]:
                over = it.lac.report.violations.get(region, 0)
                lines.append(f"| `{region}` | {count} | {over or ''} |")
            if len(ordered) > 20:
                lines.append(f"| ... {len(ordered) - 20} more regions | | |")
            lines.append("")

    if outcome.ledger.records:
        lines += [
            "## Resilience ledger",
            "",
            "```",
            outcome.ledger.format(verbose=True),
            "```",
            "",
        ]

    final = outcome.final
    if not final.infeasible and final.lac is not None:
        report = timing_report(final.lac.retiming.graph, final.t_clk)
        lines += [
            "## Timing (final LAC-retimed circuit)",
            "",
            "```",
            report.format(),
            "```",
            "",
        ]
    return "\n".join(lines)


def write_flow_report(outcome: PlanningOutcome, path: str) -> None:
    """Write :func:`flow_report_markdown` output to ``path``."""
    with open(path, "w") as f:
        f.write(flow_report_markdown(outcome))
