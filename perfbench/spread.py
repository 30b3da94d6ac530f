"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload table1_hit --seeds 1-10 --seconds 10

For every end-to-end metric this prints the median over the runs and
the distance between the first and third quartile as a share of the
median, next to the metric's bound in ``run.END_TO_END``; a spread
above a third of the bound is flagged. Runs go one after another, each
in its own process, exactly as ``run.py`` is invoked by hand.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import END_TO_END, WORKLOADS
from stats import iqr_share

HERE = Path(__file__).resolve().parent


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)

    values = {name: [] for name, *_ in END_TO_END}
    for seed in _seeds(args.seeds):
        cmd = [
            sys.executable, str(HERE / "run.py"),
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", "0",
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        doc = json.loads(lines[-1])
        host = [line[len("# host: "):] for line in lines if line.startswith("# host: ")]
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in doc["metrics"].items()
        ) + f" failed={doc['failed']} | {' '.join(host)}", flush=True)
        for name in values:
            values[name].append(doc["metrics"][name]["value"])
    if len(next(iter(values.values()))) < 2:
        return 0
    print(f"{'metric':14s} {'median':>12s} {'iqr/median':>11s} {'bound':>6s}")
    for name, _unit, _better, bound in END_TO_END:
        spread = iqr_share(values[name])
        flag = "  > bound/3" if spread > bound / 3 else ""
        print(f"{name:14s} {statistics.median(values[name]):12.5g} {spread:11.4f} {bound:6.2f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
