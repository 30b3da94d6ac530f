"""Vectorised feasibility checking for period probes.

Minimum-period retiming probes many candidate periods; building a
:class:`~repro.retime.constraints.Constraint` object per clocking pair
(up to O(V^2) of them) per probe dominates runtime. This module keeps
everything in numpy arrays:

* the static arrays (edge constraints, host-equality constraints) are
  extracted once per graph;
* per probe, the clocking pairs ``D > T`` are masked directly out of
  the W/D matrices, then reduced with the witness prune
  (:func:`repro.retime.constraints._prune_keep_mask`): a pruned pair
  is implied by a kept pair plus edge-constraint chains, so dropping
  it changes neither the solution set nor the Bellman–Ford distances,
  while cutting the arc count by ~99% on the larger circuits; the
  pruned arrays are cached per period across probes;
* feasibility is decided by Bellman–Ford on the difference-constraint
  graph (``r(u) - r(v) <= b`` becomes arc ``v -> u`` with weight
  ``b``; distances from an implicit all-zero source satisfy every
  constraint iff no negative cycle exists): scipy's compiled solver
  from scratch (:meth:`FeasibilityChecker.check`), or a vectorised
  warm-started relaxation (:meth:`FeasibilityChecker.refine`) that
  stops at the first cycle of its predecessor graph — always a
  negative cycle, and the witness of the infeasible verdict.

Both are exact for the split-host semantics — the test suite
cross-checks them against each other and against the constraint-object
oracle — at a fraction of the cost of building constraint objects.

This module is *solver machinery*, not a certifier: it shares the CSR
caches and W/D matrices whose correctness is under test. Independent
certification of finished retimings lives in :mod:`repro.verify`,
which re-derives legality and periods from the raw graph without
touching any of these arrays.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import NegativeCycleError, bellman_ford

from repro.netlist.graph import CircuitGraph
from repro.retime.constraints import _prune_keep_mask
from repro.retime.wd import WDMatrices

#: Relaxation rounds granted to the raw (unpruned) arc arrays before
#: :meth:`FeasibilityChecker.refine` switches to the pruned set — well
#: above what a good warm start needs to converge or close a negative
#: cycle, well below the ``n``-round tail of a badly warmed probe.
_REFINE_WARM_ROUNDS = 24


@dataclasses.dataclass
class FeasibilityChecker:
    """Reusable per-graph state for fast period-feasibility probes.

    Everything that does not depend on the probed period is computed
    once in :meth:`build`: the static constraint arcs, the virtual
    source arcs of the Bellman–Ford instance, and the maximum single
    vertex delay (the immediate-reject bound).
    """

    wd: WDMatrices
    static_u: np.ndarray  # constraint r(u) - r(v) <= b ...
    static_v: np.ndarray
    static_b: np.ndarray
    n: int
    max_delay: float
    src_rows: np.ndarray  # virtual-source arcs, shared by every probe
    src_cols: np.ndarray
    src_data: np.ndarray
    #: Per-period (u, v, b) probe arrays. Binary searches probe only a
    #: few dozen distinct periods, so the cache stays small; the arrays
    #: themselves are post-prune, i.e. a few thousand arcs.
    arc_cache: Dict[float, Tuple[np.ndarray, np.ndarray, np.ndarray]] = (
        dataclasses.field(default_factory=dict)
    )
    #: The negative cycle behind the last infeasible :meth:`refine`
    #: verdict, as ``wd.order`` indices in arc order (see
    #: :func:`_pred_cycle`); ``None`` after a feasible verdict, a
    #: vertex-delay reject or a backstop exit.
    last_cycle: Optional[np.ndarray] = None

    @classmethod
    def build(cls, graph: CircuitGraph, wd: WDMatrices) -> "FeasibilityChecker":
        index = wd.index
        best: Dict[Tuple[int, int], int] = {}
        for (u, v, _k), w in graph.connections():
            pair = (index[u], index[v])
            if pair not in best or w < best[pair]:
                best[pair] = w
        hosts = [index[h] for h in graph.host_units()]
        extra: List[Tuple[int, int, int]] = []
        for a, b in zip(hosts, hosts[1:]):
            extra.append((a, b, 0))
            extra.append((b, a, 0))
        u_arr = np.array(
            [p[0] for p in best] + [e[0] for e in extra], dtype=np.int64
        )
        v_arr = np.array(
            [p[1] for p in best] + [e[1] for e in extra], dtype=np.int64
        )
        b_arr = np.array(
            list(best.values()) + [e[2] for e in extra], dtype=np.int64
        )
        n = len(index)
        return cls(
            wd=wd,
            static_u=u_arr,
            static_v=v_arr,
            static_b=b_arr,
            n=n,
            max_delay=wd.max_vertex_delay(),
            src_rows=np.zeros(n, dtype=np.int64),
            src_cols=np.arange(1, n + 1, dtype=np.int64),
            src_data=np.zeros(n, dtype=np.float64),
        )

    # ------------------------------------------------------------------
    def _probe_arrays(
        self, period: float, prune: bool = True
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Constraint arrays for one period.

        With ``prune=True`` (the cold-solve path), clocking pairs
        implied by a witness pair plus edge chains
        (:func:`repro.retime.constraints._prune_keep_mask`) are dropped
        before the solve: the pruned system has the same solution set,
        so verdicts *and* Bellman–Ford distances are unchanged while
        the arc count falls by ~99% on the larger Table-1 circuits.
        Pruned arrays are small and cached per period; unpruned arrays
        are rebuilt on demand (they can run to megabytes per period).
        """
        cached = self.arc_cache.get(period)
        if cached is not None:
            return cached
        mask = np.isfinite(self.wd.d) & (self.wd.d > period)
        np.fill_diagonal(mask, False)
        rows, cols = np.nonzero(mask)
        if prune and rows.size:
            kept = _prune_keep_mask(self.wd, period, rows, cols)
            rows = rows[kept]
            cols = cols[kept]
        bounds = self.wd.w[rows, cols].astype(np.int64) - 1
        u = np.concatenate([self.static_u, rows])
        v = np.concatenate([self.static_v, cols])
        b = np.concatenate([self.static_b, bounds])
        if prune:
            self.arc_cache[period] = (u, v, b)
        return u, v, b

    def check(self, period: float) -> Optional[np.ndarray]:
        """Integer labels (indexed like ``wd.order``) or ``None``.

        A single unit whose delay already exceeds the period is an
        immediate reject. The Bellman–Ford run itself is delegated to
        scipy's compiled implementation: constraint ``r(u) - r(v) <= b``
        is arc ``v -> u`` with weight ``b``; a virtual source with
        zero-weight arcs to every vertex makes distances a solution,
        and a negative cycle means infeasible.
        """
        if self.max_delay > period:
            return None
        u, v, b = self._probe_arrays(period)
        # Deduplicate arcs keeping the tightest bound (csr construction
        # would otherwise *sum* duplicate entries).
        key = v * self.n + u
        order = np.lexsort((b, key))
        key_sorted = key[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = key_sorted[1:] != key_sorted[:-1]
        sel = order[first]
        rows = v[sel] + 1  # shift by one: row 0 is the virtual source
        cols = u[sel] + 1
        data = b[sel].astype(np.float64)
        matrix = csr_matrix(
            (
                np.concatenate([data, self.src_data]),
                (
                    np.concatenate([rows, self.src_rows]),
                    np.concatenate([cols, self.src_cols]),
                ),
            ),
            shape=(self.n + 1, self.n + 1),
        )
        try:
            dist = bellman_ford(matrix, directed=True, indices=0)
        except NegativeCycleError:
            return None
        return dist[1:].astype(np.int64)

    def refine(
        self, period: float, start: np.ndarray
    ) -> Optional[np.ndarray]:
        """Exact feasibility at ``period`` from a warm start.

        ``start`` holds integer labels indexed like ``wd.order``; any
        values are correct (relaxation converges to the greatest
        solution pointwise ``<= start`` whenever one exists, and a
        shifted copy of *any* solution fits below ``start``), but a
        near-solution — e.g. a witness for a slightly larger period —
        converges in a handful of rounds. Returns corrected labels, or
        ``None`` when ``period`` is infeasible. The verdict is exact
        and identical to :meth:`check`; only the cost differs.

        Each round relaxes ``r(u) <- min(r(u), r(v) + b)`` over the
        arcs leaving changed vertices (arcs out of unchanged vertices
        cannot relax further, so this is a full Bellman–Ford round) and
        records, for every lowered vertex, the arc that gave its new
        minimum. A cycle in that predecessor graph is always a negative
        cycle (Cherkassky & Goldberg 1999), so infeasible periods exit
        as soon as one closes — within a few rounds on the Table-1
        graphs — and :attr:`last_cycle` holds it. Two backstops stay
        sound without it: every bound is ``>= -1``, so feasible labels
        never drop more than ``ptp(start) + n`` below start, and a
        round that still changes after ``n + 2`` full rounds proves a
        negative cycle.

        The first rounds run over the raw arc arrays: a good warm start
        converges (or closes a cycle) before the witness prune would
        have paid for itself. Past a small round cap the relaxation
        restarts its frontier on the pruned arc set and continues from
        the labels reached so far; both arc sets describe the same
        solution set, so the verdict does not depend on the switch.
        """
        self.last_cycle = None
        if self.max_delay > period:
            return None
        r = np.array(start, dtype=np.int64)
        base = r.copy()
        worst = int(np.ptp(r)) + self.n + 1 if self.n else 0
        # pred[x] is the tail of the arc that last lowered x; the
        # sentinel root n stands for "never lowered".
        pred = np.full(self.n + 1, self.n, dtype=np.int64)
        pruned = period in self.arc_cache
        arcs = self._probe_arrays(period, prune=pruned)
        budget = _REFINE_WARM_ROUNDS if not pruned else self.n + 2
        while True:
            status = self._relax(arcs, r, base, worst, budget, pred)
            if status == "converged":
                return r
            if status == "infeasible" or pruned:
                # Still changing after n + 2 full rounds on one arc
                # set: negative cycle.
                return None
            arcs = self._probe_arrays(period, prune=True)
            pruned = True
            budget = self.n + 2

    def _relax(
        self,
        arcs: Tuple[np.ndarray, np.ndarray, np.ndarray],
        r: np.ndarray,
        base: np.ndarray,
        worst: int,
        budget: int,
        pred: np.ndarray,
    ) -> str:
        """Run up to ``budget`` relaxation rounds in place on ``r``.

        Returns ``"converged"`` (no arc can relax further),
        ``"infeasible"`` (a predecessor cycle closed, or labels fell
        past the sound ``worst`` cutoff), or ``"budget"`` (rounds
        exhausted, ``r`` holds progress so far).
        """
        u, v, b = arcs
        order = np.argsort(v, kind="stable")
        u = u[order]
        v = v[order]
        b = b[order]
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(v, minlength=self.n), out=indptr[1:])
        frontier = np.ones(self.n, dtype=bool)
        for _ in range(budget):
            src = np.nonzero(frontier)[0]
            starts = indptr[src]
            counts = indptr[src + 1] - starts
            total = int(counts.sum())
            if total == 0:
                return "converged"
            shift = np.cumsum(counts) - counts
            eidx = np.repeat(starts - shift, counts) + np.arange(total)
            au = u[eidx]
            cand = r[v[eidx]] + b[eidx]
            viol = cand < r[au]
            if not viol.any():
                return "converged"
            au = au[viol]
            cand = cand[viol]
            np.minimum.at(r, au, cand)
            won = cand == r[au]
            pred[au[won]] = v[eidx[viol][won]]
            frontier[:] = False
            frontier[au] = True
            self.last_cycle = _pred_cycle(pred)
            if self.last_cycle is not None:
                return "infeasible"
            if int((base - r).max()) > worst:
                return "infeasible"
        return "budget"

    def labels(self, period: float) -> Optional[Dict[str, int]]:
        """Like :meth:`check` but mapped back to unit names.

        Labels are raw Bellman–Ford potentials; callers normalise hosts
        to 0 with :func:`repro.retime.minarea.normalise_labels`.
        """
        dist = self.check(period)
        if dist is None:
            return None
        return {v: int(dist[i]) for v, i in self.wd.index.items()}


def _pred_cycle(pred: np.ndarray) -> Optional[np.ndarray]:
    """A cycle of the predecessor array, or ``None`` if it is a forest.

    ``pred`` has one entry per vertex plus the sentinel root ``n``
    (``pred[n] == n``). Pointer doubling follows ``2**k >= n + 1``
    predecessor steps from every vertex at once: each one then sits at
    the root or on a cycle. The cycle is returned in arc order —
    ``cycle[i] -> cycle[i + 1]`` (wrapping) is a constraint arc, i.e.
    ``r(cycle[i + 1]) - r(cycle[i]) <= b``.
    """
    n = pred.size - 1
    p = pred
    for _ in range(int(np.ceil(np.log2(n + 1))) + 1):
        p = p[p]
    stuck = np.flatnonzero(p[:n] != n)
    if stuck.size == 0:
        return None
    head = int(p[stuck[0]])
    cycle = [head]
    x = int(pred[head])
    while x != head:
        cycle.append(x)
        x = int(pred[x])
    return np.array(cycle[::-1], dtype=np.int64)
