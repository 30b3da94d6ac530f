"""The platform fallback: planning without scipy's HiGHS bindings.

The warm LAC solver uses HiGHS whenever its bindings import and the
pure-Python successive-shortest-path network otherwise; no setting
selects between them. Hiding the bindings is therefore the only way to
run the SSP path, so this test does exactly that and plans real
circuits end to end. Both engines solve the same LP exactly, and on
these circuits their tie-breaking also agrees: every result field
matches the benchmark reference (``perfbench/reference.json``), which
was produced with HiGHS.
"""

import json
from pathlib import Path

import pytest

import repro.retime.incremental as incremental
from repro.core.planner import plan_interconnect
from repro.experiments.circuits import load_circuit
from repro.serve.worker import outcome_result

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
FIELDS = ("t_clk", "t_min", "n_foa", "n_f", "ma_n_foa", "ma_n_f")


@pytest.mark.parametrize("name", ["s27", "s298", "s386"])
def test_ssp_plan_matches_reference(name, monkeypatch):
    monkeypatch.setattr(incremental, "_load_highs", lambda: None)
    graph, kwargs = load_circuit(name)
    outcome = plan_interconnect(graph, compile_cache="off", verify=True, **kwargs)
    assert outcome.verification.ok
    assert outcome.first.lac.solver_stats["engine"] == "ssp"
    expected = json.loads(REFERENCE.read_text())["circuits"][name]
    result = outcome_result(outcome, 0.0)
    assert {k: result[k] for k in FIELDS} == {k: expected[k] for k in FIELDS}
