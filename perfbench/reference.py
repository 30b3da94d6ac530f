"""Regenerate ``reference.json``, the results the correctness gate expects.

    python3 perfbench/reference.py

Plans every circuit the workloads can run (s27 plus the Table-1 rows
the in-process workloads keep), certifies each plan, and stores the
bit-identity fields of ``stats.RESULT_FIELDS``. Every workload checks
every plan against it, whatever the seed. Regenerate it only when a
change is meant to alter Table-1 results, and say so.
"""

from __future__ import annotations

import json
import sys

from run import HERE, _import_program
from stats import RESULT_FIELDS


def main() -> int:
    _import_program()
    from repro.core.planner import plan_interconnect
    from repro.experiments.circuits import load_circuit
    from workloads import SERVE_CIRCUITS, plan_result, table1_circuits

    names = list(dict.fromkeys(list(SERVE_CIRCUITS) + table1_circuits()))
    circuits = {}
    for name in names:
        graph, kwargs = load_circuit(name)
        outcome = plan_interconnect(graph, compile_cache="off", verify=True, **kwargs)
        if not outcome.verification.ok:
            print(f"error: {name} does not certify clean", file=sys.stderr)
            return 1
        result = plan_result(outcome, 0.0)
        circuits[name] = {k: result[k] for k in RESULT_FIELDS}
        print(name, circuits[name])
    doc = {
        "about": "plan results every workload checks against; see perfbench/README.md",
        "fields": list(RESULT_FIELDS),
        "circuits": circuits,
    }
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
