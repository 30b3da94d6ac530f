"""Hashable-node min-cost flow and the retiming dual, over ``_Network``.

The production solvers index nodes by integer; these wrappers map
arbitrary node names onto the same successive-shortest-path network
(:class:`repro.retime.mcf._Network`), so the hand-computed flow tests
and the networkx cross-check exercise the production arithmetic.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import RetimingError
from repro.retime import (
    RetimingResult,
    build_constraint_system,
    normalise_labels,
    retiming_objective,
    wd_matrices,
)
from repro.retime.mcf import _TOL, _Network

Node = Hashable


class MinCostFlow:
    """A min-cost-flow instance over hashable node ids."""

    def __init__(self):
        self._index: Dict[Node, int] = {}
        self._nodes: List[Node] = []
        self._demand: List[float] = []
        self._arc_tail: List[int] = []
        self._arc_head: List[int] = []
        self._arc_cost: List[float] = []
        self._net: Optional[_Network] = None

    def _node(self, name: Node) -> int:
        if name not in self._index:
            self._index[name] = len(self._nodes)
            self._nodes.append(name)
            self._demand.append(0.0)
        return self._index[name]

    def add_node(self, name: Node, demand: float = 0.0) -> None:
        """Declare ``name`` with ``demand`` (> 0 wants inflow)."""
        self._demand[self._node(name)] += demand

    def add_arc(self, u: Node, v: Node, cost: float) -> None:
        """Directed arc ``u -> v`` with unlimited capacity and ``cost``."""
        self._arc_tail.append(self._node(u))
        self._arc_head.append(self._node(v))
        self._arc_cost.append(float(cost))
        self._net = None

    def solve(self) -> Tuple[float, Dict[Node, float]]:
        """Returns ``(total_cost, potentials)`` at optimality.

        Raises:
            ValueError: demands do not sum to zero.
            UnboundedObjectiveError: excess cannot reach a deficit.
            InfeasibleConstraintsError: a negative-cost cycle exists.
        """
        if self._demand and abs(sum(self._demand)) > _TOL:
            raise ValueError("demands must sum to zero")
        self._net = _Network(
            len(self._nodes), self._arc_tail, self._arc_head, self._arc_cost
        )
        potential = self._net.bellman_ford()
        excess = [-d for d in self._demand]
        cost_total, _n_aug = self._net.run_ssp(excess, potential)
        return cost_total, dict(zip(self._nodes, potential))

    def flow_on(self, u: Node, v: Node) -> float:
        """Total flow currently routed on arcs ``u -> v``."""
        ui = self._index.get(u)
        vi = self._index.get(v)
        if ui is None or vi is None or self._net is None:
            return 0.0
        return float(
            sum(
                self._net.flow[k]
                for k in range(len(self._arc_tail))
                if self._arc_tail[k] == ui and self._arc_head[k] == vi
            )
        )


def solve_retiming_dual(
    constraints: Sequence, objective: Mapping[Node, float]
) -> Dict[Node, int]:
    """Minimise ``sum_v objective[v] * r(v)`` s.t. ``r(u) - r(v) <= b``.

    Same contract as :func:`repro.retime.flow.optimal_labels`: node
    demand ``c_v``, one arc per ``(u, v)`` pair with the tightest bound
    as cost, optimal labels ``-potential``.
    """
    total = sum(int(round(c)) for c in objective.values())
    if total != 0:
        raise RetimingError(f"objective coefficients sum to {total}, not 0")
    mcf = MinCostFlow()
    for node, coeff in objective.items():
        mcf.add_node(node, demand=float(int(round(coeff))))
    best: Dict[Tuple[Node, Node], float] = {}
    for c in constraints:
        key = (c.u, c.v)
        if key not in best or c.bound < best[key]:
            best[key] = c.bound
    for (u, v), bound in best.items():
        mcf.add_arc(u, v, float(bound))
    _cost, potentials = mcf.solve()
    return {node: -int(round(p)) for node, p in potentials.items()}


def min_area_retiming_ssp(graph, period, system=None):
    """:func:`repro.retime.min_area_retiming` with the SSP dual solver."""
    if system is None:
        system = build_constraint_system(graph, wd_matrices(graph), period)
    labels = solve_retiming_dual(system.constraints, retiming_objective(graph))
    labels = normalise_labels(graph, {v: labels.get(v, 0) for v in graph.units()})
    retimed = graph.retimed(labels)
    return RetimingResult(
        labels=labels,
        graph=retimed,
        period=period,
        total_ffs=retimed.total_flip_flops(),
    )
