"""Benchmark entry point: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload table1_hit --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` next to this directory and nothing else. Human-readable lines
(failures by name, host drift, sample counts) come first; the last
line of standard output is the result object. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` installs the layer wrappers and
reports the per-layer metrics instead. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

from layers import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("table1_miss", "table1_hit", "serve_small")

#: (name, unit, better, bound): what every untraced run prints.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("plan_s", "s", "lower", 0.25),
    ("suite_s", "s", "lower", 0.25),
    ("job_p50_s", "s", "lower", 0.25),
    ("job_p75_s", "s", "lower", 0.25),
    ("jobs_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("ok_ratio", "ratio", "higher", 0.01),
)

_CIRCUITS = ("s27", "s298", "s386", "s526", "s641", "s832", "s953", "s1196", "s1269", "s1423")

#: (name, unit, better): what every traced run prints.
PER_LAYER = (
    tuple((f"{layer}.s", "s", "lower") for layer in LAYERS + ("other",))
    + (
        ("constraints.count", "count", "lower"),
        ("route.overflow", "count", "lower"),
        ("expand.units", "count", "lower"),
        ("lac.rounds", "count", "lower"),
        ("lac.simplex_iterations", "count", "lower"),
        ("compile.hits", "count", "higher"),
        ("compile.misses", "count", "lower"),
        ("resilience.retries", "count", "lower"),
        ("compile.peak_rss_mb", "MB", "lower"),
        ("min_period.peak_rss_mb", "MB", "lower"),
        ("serve.submit_s", "s", "lower"),
        ("serve.queue_wait_s", "s", "lower"),
        ("serve.spawn_s", "s", "lower"),
        ("serve.plan_s", "s", "lower"),
        ("serve.attempts_per_job", "ratio", "lower"),
        ("serve.sheds", "count", "lower"),
        ("serve.worker_rss_mb", "MB", "lower"),
    )
    + tuple((f"{c}.s", "s", "lower") for c in _CIRCUITS)
    + (
        ("trace.overhead_ratio", "ratio", "lower"),
        ("host.calib_s", "s", "lower"),
        ("host.steal_ratio", "ratio", "lower"),
    )
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program() -> None:
    """Put ``src/`` first on the path and check that is what loads."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {SRC}")


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    import host
    import workloads

    reference = workloads.load_reference(HERE / "reference.json")
    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    jiffies_before = host.cpu_jiffies()
    try:
        if args.workload == "serve_small":
            runner = workloads.Serve(args.seed, args.seconds, tmp, bool(args.trace), SRC, reference)
        else:
            runner = workloads.Table1(
                args.seed, args.seconds, tmp, bool(args.trace), args.workload == "table1_hit", reference
            )
        result = runner.run()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    steal = host.steal_ratio(jiffies_before, host.cpu_jiffies())

    for note in result.notes:
        print(f"# {note}")
    speed = result.speed
    if speed is not None:
        print(
            f"# host: calibration slice median {speed.slice_s * 1e3:.2f} ms over {len(speed.slices)} "
            f"(reference {host.REF_SLICE_S * 1e3:.0f} ms), timings scaled by {result.scale:.4f}; "
            f"steal {steal:.4f}"
        )
    gate = result.gate
    print(f"# correctness: {gate.attempted - gate.failed}/{gate.attempted} plans ok")
    for reason, n in sorted(gate.failures.items()):
        print(f"# FAILED {reason} x{n}")
    if not result.metrics:
        print("error: the workload completed no work", file=sys.stderr)
        return 1

    if args.trace:
        layers = dict(result.layers)
        if speed is not None:
            layers["host.calib_s"] = (speed.slice_s, "s")
        layers["host.steal_ratio"] = (steal, "ratio")
        # A layer the workload does not exercise reads 0.
        chosen = [(name, layers.get(name, (0.0, unit))) for name, unit, _ in PER_LAYER]
    else:
        chosen = [(name, result.metrics[name]) for name, *_ in END_TO_END]
    for name, (value, unit) in chosen:
        print(f"# {name:28s} {value:14.6f} {unit}")
    print(
        json.dumps(
            {
                "correct": gate.failed == 0,
                "attempted": gate.attempted,
                "failed": gate.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
