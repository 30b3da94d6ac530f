"""Exact decisions in the min-period search.

Every probe of the search is decided exactly: FEAS verifies feasible
periods under a small round budget, and the warm-started Bellman–Ford
relaxation (:meth:`FeasibilityChecker.refine`) decides the rest, exiting
at the first cycle of its predecessor graph. These tests pin

* the cycle exit against scipy's Bellman–Ford (:meth:`check`) on every
  exact candidate period, with each infeasible verdict's cycle re-summed
  from the raw graph and W/D as an independent negative-cycle witness;
* the cost profile of a traced search — counts, not seconds.
"""

import math

import numpy as np
import pytest

from repro.experiments.circuits import get_circuit
from repro.netlist import random_circuit
from repro.obs import Tracer
from repro.retime import candidate_periods, min_period_retiming, wd_matrices
from repro.retime.fastcheck import FeasibilityChecker
from repro.retime.minperiod import _PROBE_ROUNDS


def _graphs():
    for seed in range(20):
        graph = random_circuit(f"mx{seed}", n_units=30, n_ffs=20, seed=seed)
        yield pytest.param(f"random-{seed}", graph, id=f"random-{seed}")
    yield pytest.param("s298", get_circuit("s298").build(), id="s298")


def _cycle_bound_sum(graph, wd, period, cycle):
    """Sum of the tightest bounds along ``cycle``, recomputed from the
    graph and W/D alone.

    ``cycle[i] -> cycle[i + 1]`` is a constraint arc: it stands for
    ``r(b) - r(a) <= bound`` with ``a, b = cycle[i], cycle[i + 1]``. The
    constraints of that form are an edge ``b -> a`` (bound: its weight),
    a clocking pair with ``D(b, a) > T`` (bound: ``W(b, a) - 1``) and a
    host tie (bound: 0).
    """
    names = [wd.order[i] for i in cycle]
    edge = {}
    for (u, v, _k), w in graph.connections():
        edge[(u, v)] = min(w, edge.get((u, v), w))
    hosts = set(graph.host_units())
    total = 0
    for a, b in zip(names, names[1:] + names[:1]):
        options = []
        if (b, a) in edge:
            options.append(edge[(b, a)])
        ib, ia = wd.index[b], wd.index[a]
        if ib != ia and np.isfinite(wd.d[ib, ia]) and wd.d[ib, ia] > period:
            options.append(int(wd.w[ib, ia]) - 1)
        if a in hosts and b in hosts:
            options.append(0)
        assert options, f"{a} -> {b} is not a constraint arc at T={period}"
        total += min(options)
    return total


@pytest.mark.parametrize("name,graph", list(_graphs()))
def test_cycle_exit_matches_bellman_ford(name, graph):
    """On every exact candidate period, walked from the top down with
    the search's warm starts, the cycle-exit verdict equals scipy's
    Bellman–Ford, and every infeasible verdict above the vertex-delay
    floor carries a negative cycle."""
    wd = wd_matrices(graph)
    checker = FeasibilityChecker.build(graph, wd)
    max_delay = wd.max_vertex_delay()
    warm = np.zeros(checker.n, dtype=np.int64)
    n_infeasible = 0
    for t in reversed(candidate_periods(wd, tol=0.0)):
        got = checker.refine(t, warm)
        cycle = checker.last_cycle
        want = checker.check(t)
        assert (got is None) == (want is None), f"{name}: T={t}"
        if got is not None:
            assert cycle is None
            warm = got
        elif t >= max_delay:
            n_infeasible += 1
            assert cycle is not None, f"{name}: no cycle at T={t}"
            assert len(set(cycle.tolist())) == len(cycle)
            assert _cycle_bound_sum(graph, wd, t, cycle) < 0, f"{name}: T={t}"
    assert n_infeasible > 0


def _traced_search(graph):
    tracer = Tracer()
    min_period_retiming(graph, tracer=tracer)
    (search,) = [s for s in tracer.spans if s.name == "min_period/search"]
    return search, tracer.spans


@pytest.mark.parametrize(
    "build",
    [
        lambda: get_circuit("s298").build(),
        lambda: random_circuit("mx1k", n_units=1000, n_ffs=300, seed=3),
    ],
    ids=["s298", "random-1k"],
)
def test_search_cost_profile(build):
    search, spans = _traced_search(build())
    names = [s.name for s in spans]
    assert search.attrs["engine"] == "feas"
    assert "feas/certify" not in names
    probes = [s for s in spans if s.name == "feas/probe"]
    assert probes
    assert all(p.attrs["rounds"] <= _PROBE_ROUNDS for p in probes)
    n_candidates = search.attrs["n_candidates"]
    assert len(probes) <= math.ceil(math.log2(n_candidates)) + 2
    # Every probe FEAS did not verify is decided on the spot, once.
    unverified = [p for p in probes if p.attrs["verdict"] == "unverified"]
    exact = [s for s in spans if s.name == "feas/exact"]
    assert len(exact) == len(unverified)
    for s in exact:
        assert s.attrs["verdict"] in ("feasible", "infeasible")
        assert (s.attrs["cycle_len"] > 0) == (s.attrs["verdict"] == "infeasible")
