"""ISCAS89 ``.bench`` netlist reader.

The paper evaluates on ISCAS89 benchmark circuits "treated as RT-level
netlists": each gate becomes a functional unit with a (large) delay and
area, and DFF elements become edge weights in the retiming graph. This
module parses the standard ``.bench`` syntax::

    # comment
    INPUT(G0)
    OUTPUT(G17)
    G10 = NAND(G0, G1)
    G11 = DFF(G10)

and converts it to a :class:`~repro.netlist.graph.CircuitGraph`:

* every combinational gate is one unit, with delay/area looked up by
  gate type;
* a chain of DFFs between two gates contributes that many flip-flops to
  the connecting edge's weight;
* primary inputs are driven by the source host and primary outputs feed
  the sink host (weight = number of DFFs between the boundary and the
  gate).
"""

from __future__ import annotations

import dataclasses
import re
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import BenchParseError
from repro.netlist.graph import HOST_SNK, HOST_SRC, CircuitGraph

#: Default per-gate-type delays (ns) — "functional units with large
#: area and delay" per the paper's experimental setup.
DEFAULT_DELAYS: Dict[str, float] = {
    "BUF": 0.6,
    "BUFF": 0.6,
    "NOT": 0.6,
    "AND": 1.0,
    "NAND": 1.0,
    "OR": 1.0,
    "NOR": 1.0,
    "XOR": 1.6,
    "XNOR": 1.6,
}

#: Default per-gate-type areas (mm^2 of placement fabric). The paper
#: treats gates as RT-level "functional units with large area and
#: delay", so areas are block-sized rather than gate-sized.
DEFAULT_AREAS: Dict[str, float] = {
    "BUF": 8.0,
    "BUFF": 8.0,
    "NOT": 8.0,
    "AND": 16.0,
    "NAND": 16.0,
    "OR": 16.0,
    "NOR": 16.0,
    "XOR": 24.0,
    "XNOR": 24.0,
}

_LINE_RE = re.compile(
    r"^\s*(?:"
    r"(?P<io>INPUT|OUTPUT)\s*\(\s*(?P<io_net>[^)\s]+)\s*\)"
    r"|(?P<out>[^=\s]+)\s*=\s*(?P<gate>[A-Za-z]+)\s*\(\s*(?P<ins>[^)]*)\)"
    r")\s*$"
)


@dataclasses.dataclass
class BenchNetlist:
    """Parsed ``.bench`` contents before graph conversion."""

    name: str
    inputs: List[str]
    outputs: List[str]
    gates: Dict[str, Tuple[str, List[str]]]  # net -> (gate_type, input nets)
    dffs: Dict[str, str]  # net -> input net


def parse_bench_text(text: str, name: str = "bench") -> BenchNetlist:
    """Parse ``.bench`` source text into a :class:`BenchNetlist`."""
    inputs: List[str] = []
    outputs: List[str] = []
    gates: Dict[str, Tuple[str, List[str]]] = {}
    dffs: Dict[str, str] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        match = _LINE_RE.match(line)
        if match is None:
            raise BenchParseError(f"{name}:{lineno}: cannot parse {raw!r}")
        if match.group("io"):
            target = inputs if match.group("io") == "INPUT" else outputs
            target.append(match.group("io_net"))
            continue
        out_net = match.group("out")
        gate_type = match.group("gate").upper()
        in_nets = [s.strip() for s in match.group("ins").split(",") if s.strip()]
        if out_net in gates or out_net in dffs:
            raise BenchParseError(f"{name}:{lineno}: net {out_net!r} driven twice")
        if gate_type == "DFF":
            if len(in_nets) != 1:
                raise BenchParseError(
                    f"{name}:{lineno}: DFF must have exactly one input"
                )
            dffs[out_net] = in_nets[0]
        else:
            if gate_type not in DEFAULT_DELAYS:
                raise BenchParseError(
                    f"{name}:{lineno}: unknown gate type {gate_type!r}"
                )
            if not in_nets:
                raise BenchParseError(f"{name}:{lineno}: gate with no inputs")
            gates[out_net] = (gate_type, in_nets)

    return BenchNetlist(name=name, inputs=inputs, outputs=outputs, gates=gates, dffs=dffs)


def _resolve_driver(
    net: str, netlist: BenchNetlist, cache: Dict[str, Tuple[str, int]]
) -> Tuple[str, int]:
    """Trace ``net`` back through DFF chains to its combinational driver.

    Returns ``(driver, n_ffs)`` where ``driver`` is a gate output net,
    a primary input, or the constant source for undriven nets.
    """
    if net in cache:
        return cache[net]
    n_ffs = 0
    seen = set()
    cur = net
    while cur in netlist.dffs:
        if cur in seen:
            raise BenchParseError(f"pure DFF cycle through net {cur!r}")
        seen.add(cur)
        n_ffs += 1
        cur = netlist.dffs[cur]
    if cur in netlist.gates or cur in netlist.inputs:
        result = (cur, n_ffs)
    else:
        raise BenchParseError(f"net {cur!r} is never driven")
    cache[net] = result
    return result


def bench_to_graph(
    netlist: BenchNetlist,
    delays: Optional[Mapping[str, float]] = None,
    areas: Optional[Mapping[str, float]] = None,
) -> CircuitGraph:
    """Convert a parsed ``.bench`` netlist to a retiming graph.

    Unit names are the gate output nets (and input net names for
    primary inputs, which become zero-delay "pad" units so that tiles
    and retiming see them).
    """
    delays = dict(DEFAULT_DELAYS, **(delays or {}))
    areas = dict(DEFAULT_AREAS, **(areas or {}))

    graph = CircuitGraph(netlist.name)
    src, snk = graph.ensure_hosts()
    for net in netlist.inputs:
        graph.add_unit(net, delay=0.0, area=4.0)
        graph.add_connection(src, net, weight=0)
    for net, (gate_type, _ins) in netlist.gates.items():
        graph.add_unit(net, delay=delays[gate_type], area=areas[gate_type])

    cache: Dict[str, Tuple[str, int]] = {}
    for net, (_gate_type, in_nets) in netlist.gates.items():
        for in_net in in_nets:
            driver, n_ffs = _resolve_driver(in_net, netlist, cache)
            graph.add_connection(driver, net, weight=n_ffs)
    for net in netlist.outputs:
        driver, n_ffs = _resolve_driver(net, netlist, cache)
        graph.add_connection(driver, snk, weight=n_ffs)

    graph.validate()
    return graph


def load_bench(path: str, name: Optional[str] = None) -> CircuitGraph:
    """Parse a ``.bench`` file from disk and convert it to a graph.

    Raises:
        BenchParseError: The file is unreadable or not UTF-8 text
            (naming the file), or not valid ``.bench``.
    """
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise BenchParseError(f"cannot read .bench file {path}: {exc}") from exc
    netlist = parse_bench_text(text, name=name or path)
    return bench_to_graph(netlist)


def write_bench_text(netlist: BenchNetlist) -> str:
    """Render a :class:`BenchNetlist` back to ``.bench`` source text.

    Together with :func:`repro.netlist.retime_bench.retime_bench` this
    lets users export retimed netlists for other tools; the output
    parses back to an identical netlist (round-trip tested).
    """
    lines: List[str] = [f"# {netlist.name}"]
    for net in netlist.inputs:
        lines.append(f"INPUT({net})")
    for net in netlist.outputs:
        lines.append(f"OUTPUT({net})")
    for net, src in netlist.dffs.items():
        lines.append(f"{net} = DFF({src})")
    for net, (gate_type, ins) in netlist.gates.items():
        lines.append(f"{net} = {gate_type}({', '.join(ins)})")
    return "\n".join(lines) + "\n"


def save_bench(netlist: BenchNetlist, path: str) -> None:
    """Write a netlist to ``path`` in ``.bench`` format."""
    with open(path, "w") as f:
        f.write(write_bench_text(netlist))
