"""The three workloads: Table-1 plans on a cache miss and on a cache
hit, and small jobs through ``repro serve``.

Every workload returns a :class:`Result`: end-to-end metrics, per-layer
metrics (filled in traced runs only) and the correctness :class:`Gate`.
The workload seed draws the order of plans and jobs.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from host import HostSpeed, cpu_jiffies, peak_rss_bytes, reset_peak_rss, steal_ratio
from layers import LAYERS, LayerTrace, trace_layer_seconds
from stats import Gate, medians, percentile, reportable_percentile, split_job, suite_summary

#: Table-1 circuits the in-process workloads leave out. One cold s5378
#: plan takes 11-16 s on a 2-vCPU host, as long as the other nine
#: together, and ``table1_hit`` pays it again in its prewarm; with it
#: a round of 70 runs no longer fits in an hour. s1269 and s1423
#: still exercise the min_period-dominated cold compile.
EXCLUDED = ("s5378",)

#: Circuits a ``serve_small`` job draws from.
SERVE_CIRCUITS = ("s27", "s298", "s386", "s526", "s641")

#: Service worker processes (the host's vCPU count) and the closed
#: loop's outstanding jobs.
SERVE_WORKERS = 2
OUTSTANDING = SERVE_WORKERS + 1

#: Completed jobs a ``serve_small`` run waits for, so job_p75_s has
#: ten samples beyond it.
MIN_JOBS = 40

#: A run stops starting new work after this long, whatever the job
#: count, so a run ends well inside three minutes.
HARD_STOP_S = 120.0

#: One client tick of the service loop (one ``GET /jobs`` each), and
#: the ticks between two calibration slices.
TICK_S = 0.25
SLICE_EVERY = 8


@dataclasses.dataclass
class Result:
    metrics: Dict[str, Tuple[float, str]]
    layers: Dict[str, Tuple[float, str]]
    gate: Gate
    notes: List[str] = dataclasses.field(default_factory=list)
    speed: Optional[HostSpeed] = None
    scale: float = 1.0  # factor applied to this run's timings


def table1_circuits() -> List[str]:
    """The Table-1 rows the in-process workloads plan.

    The netlists are the same for every workload seed; the seed only
    orders the plans. Re-drawing the netlists per seed at the same
    sizes made the workload's own cost vary by more than any usable
    regression bound (README.md, "Inputs and seeds").
    """
    from repro.experiments.circuits import TABLE1_CIRCUITS

    return [spec.name for spec in TABLE1_CIRCUITS if spec.name not in EXCLUDED]


def load_reference(path: Path) -> Dict[str, Dict]:
    return json.loads(path.read_text(encoding="utf-8"))["circuits"]


def plan_result(outcome, seconds: float) -> Dict:
    """The same result fields a service job reports."""
    from repro.serve.worker import outcome_result

    return outcome_result(outcome, seconds)


def _mb(n_bytes: float) -> float:
    return n_bytes / (1 << 20)


# -- in-process Table-1 workloads ------------------------------------------


class Table1:
    """``table1_miss`` (``hit=False``) and ``table1_hit`` (``hit=True``).

    Plans and set-up are timed in CPU seconds of this process, scaled
    by the calibration slice taken before every plan (README.md,
    "Clocks and host speed").
    """

    def __init__(self, seed: int, seconds: float, tmp: Path, trace: bool, hit: bool, reference):
        self.seconds = seconds
        self.tmp = tmp
        self.trace = trace
        self.hit = hit
        self.rng = random.Random(f"{'table1_hit' if hit else 'table1_miss'}:{seed}")
        self.gate = Gate(reference)
        self.speed: Optional[HostSpeed] = None
        self.store: Optional[Path] = None  # table1_hit's prewarmed cache
        self._dirs = 0

    def _fresh_dir(self) -> Path:
        self._dirs += 1
        return self.tmp / f"cache-{self._dirs}"

    def _plan(self, circuit: str, cache):
        from repro.core.planner import plan_interconnect
        from repro.experiments.circuits import load_circuit

        graph, kwargs = load_circuit(circuit)
        self.speed.sample()
        gc.collect()
        start = time.process_time()
        try:
            outcome = plan_interconnect(graph, compile_cache=cache, verify=True, **kwargs)
        except Exception as exc:  # counted and named, the run goes on
            self.gate.fail(f"error:{circuit}:{type(exc).__name__}")
            print(f"plan {circuit} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None, 0.0
        seconds = time.process_time() - start
        self.gate.record(circuit, plan_result(outcome, seconds), outcome.verification.ok)
        return outcome, seconds

    def _setup(self) -> Tuple[float, List[str]]:
        start = time.process_time()
        from repro.compile import CompileCache
        from repro.core.planner import plan_interconnect
        from repro.experiments.circuits import load_circuit

        circuits = table1_circuits()
        import_s = time.process_time() - start
        self.speed = HostSpeed()
        # The warm-up plans s27 into a fresh cache, then again from it,
        # so the lazy imports of both paths (networkx, the HiGHS
        # bindings, the verifier, pickle/zlib) are paid in set-up.
        start = time.process_time()
        root = self._fresh_dir()
        for _pass in range(2):
            graph, kwargs = load_circuit("s27")
            plan_interconnect(graph, compile_cache=CompileCache(root), verify=True, **kwargs)
        shutil.rmtree(root, ignore_errors=True)
        setup = import_s + time.process_time() - start
        if self.hit:
            self.store = self._fresh_dir()
            setup += sum(self._plan(circuit, CompileCache(self.store))[1] for circuit in circuits)
        return setup, circuits

    def run(self) -> Result:
        from repro.compile import CompileCache

        setup_s, circuits = self._setup()
        # The layer wrappers restart the high-water mark themselves, so
        # this run-wide peak is only meaningful (and only reported)
        # untraced.
        reset_peak_rss()
        layer_trace = LayerTrace().install() if self.trace else None
        samples: Dict[str, List[float]] = defaultdict(list)
        layer_samples: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
        counts: Dict[str, int] = defaultdict(int)
        counted = set()
        wall = 0.0
        start = time.perf_counter()
        deadline = start + self.seconds
        try:
            first_pass = True
            while True:
                for circuit in self.rng.sample(circuits, len(circuits)):
                    now = time.perf_counter()
                    if (not first_pass and now >= deadline) or now - start >= HARD_STOP_S:
                        break
                    if self.hit:
                        cache, root = CompileCache(self.store, mode="readonly"), None
                    else:
                        root = self._fresh_dir()
                        cache = CompileCache(root)
                    outcome, seconds = self._plan(circuit, cache)
                    if root is not None:
                        shutil.rmtree(root, ignore_errors=True)
                    if layer_trace is not None:
                        layer_s, layer_counts = layer_trace.take()
                    if outcome is None:
                        continue
                    samples[circuit].append(seconds)
                    wall += seconds
                    if layer_trace is not None:
                        for layer in LAYERS:
                            layer_samples[circuit][layer].append(layer_s.get(layer, 0.0))
                        layer_samples[circuit]["other"].append(seconds - sum(layer_s.values()))
                        if circuit not in counted:
                            # Counts from each circuit's first plan, so
                            # they repeat exactly however long the run.
                            counted.add(circuit)
                            for name, value in layer_counts.items():
                                counts[name] += value
                            counts["resilience.retries"] += outcome.ledger.n_retries
                else:
                    first_pass = False
                    if time.perf_counter() < deadline:
                        continue
                break
        finally:
            if layer_trace is not None:
                layer_trace.uninstall()
        peak = peak_rss_bytes()

        if not samples:
            return Result({}, {}, self.gate, ["no plan completed"])
        scale = self.speed.scale
        setup_s *= scale
        samples = {c: [v * scale for v in vs] for c, vs in samples.items()}
        plan_s, suite_s = suite_summary(samples)
        per_circuit = medians(samples)
        metrics = {
            "setup_s": (setup_s, "s"),
            "plan_s": (plan_s, "s"),
            "suite_s": (suite_s, "s"),
            # One job is one circuit's plan; the percentiles are taken
            # over the per-circuit medians, which a seed cannot reorder
            # much, not over single plans of very different sizes.
            "job_p50_s": (percentile(list(per_circuit.values()), 50), "s"),
            "job_p75_s": (percentile(list(per_circuit.values()), 75), "s"),
            "jobs_per_s": (len(per_circuit) / suite_s, "1/s"),
            "peak_rss_mb": (_mb(peak), "MB"),
            "ok_ratio": (self.gate.ok_ratio, "ratio"),
        }
        notes = [
            f"{sum(len(v) for v in samples.values())} plans over {len(samples)} circuits "
            f"in {time.perf_counter() - start:.1f}s"
        ]
        layers: Dict[str, Tuple[float, str]] = {}
        if layer_trace is not None:
            for layer in LAYERS + ("other",):
                layers[f"{layer}.s"] = (
                    scale * sum(statistics.median(layer_samples[c][layer]) for c in layer_samples),
                    "s",
                )
            for name in COUNT_METRICS:
                layers[name] = (float(counts.get(name, 0)), "count")
            for layer in ("compile", "min_period"):
                layers[f"{layer}.peak_rss_mb"] = (_mb(layer_trace.peak_bytes.get(layer, 0)), "MB")
            for name, value in per_circuit.items():
                layers[f"{name}.s"] = (value, "s")
            layers["trace.overhead_ratio"] = (layer_trace.overhead / wall, "ratio")
        return Result(metrics, layers, self.gate, notes, self.speed, scale)


#: Work counts the traced in-process run reports, summed over each
#: circuit's first plan.
COUNT_METRICS = (
    "constraints.count",
    "route.overflow",
    "expand.units",
    "lac.rounds",
    "lac.simplex_iterations",
    "compile.hits",
    "compile.misses",
    "resilience.retries",
)


# -- the service workload ---------------------------------------------------


class Daemon:
    """A ``repro serve`` child process on a free localhost port."""

    def __init__(self, src: Path, tmp: Path, workers: int):
        from repro.serve.client import ServeClient

        self.log_path = tmp / "daemon.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--port", "0",
                    "--spool", str(tmp / "spool"),
                    "--workers", str(workers),
                    "--drain-grace", "10",
                ],
                stdout=log,
                stderr=subprocess.STDOUT,
                env=env,
                cwd=str(tmp),
            )
        try:
            port = self._wait_port(timeout=60.0)
        except BaseException:
            self.stop()
            raise
        self.client = ServeClient(port=port, timeout=30.0)

    def _wait_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        marker = "listening on http://127.0.0.1:"
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited {self.proc.returncode}: {self.log_path.read_text()}")
            text = self.log_path.read_text(encoding="utf-8", errors="replace")
            if marker in text:
                return int(text.split(marker, 1)[1].split(",", 1)[0])
            time.sleep(0.02)
        raise RuntimeError("daemon did not report its port")

    def wait_ready(self, timeout: float = 60.0) -> None:
        from repro.errors import ServeError

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                if self.client.ready():
                    return
            except ServeError:
                pass
            time.sleep(0.02)
        raise RuntimeError("daemon never became ready")

    def stop(self) -> None:
        """Drain (SIGTERM) and wait; kill if the drain overruns."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10.0)


class Serve:
    """``serve_small``: a closed loop of small jobs through the daemon."""

    def __init__(self, seed: int, seconds: float, tmp: Path, trace: bool, src: Path, reference):
        self.seconds = seconds
        self.tmp = tmp
        self.trace = trace
        self.src = src
        self.rng = random.Random(f"serve_small:{seed}")
        self.gate = Gate(reference)
        self._bag: List[str] = []

    def _next_circuit(self) -> str:
        # Shuffled blocks of all five circuits: every run gets the same
        # mix, only the order depends on the seed.
        if not self._bag:
            self._bag = self.rng.sample(SERVE_CIRCUITS, len(SERVE_CIRCUITS))
        return self._bag.pop()

    def _submit(self, client, circuit: str) -> Tuple[Optional[str], float]:
        t0 = time.perf_counter()
        status, doc = client.submit(circuit, options={"verify": True})
        elapsed = time.perf_counter() - t0
        if status != 201:
            self.gate.fail(f"shed:{status}" if status in (429, 503) else f"submit:{status}")
            return None, elapsed
        return doc["id"], elapsed

    def run(self) -> Result:
        t0 = time.perf_counter()
        daemon = Daemon(self.src, self.tmp, SERVE_WORKERS)
        try:
            daemon.wait_ready()
            ready_s = time.perf_counter() - t0
            client = daemon.client
            # One warm-up job per worker, together: set-up is the daemon
            # ready plus the median warm-up job.
            warm_ids = []
            for _ in range(SERVE_WORKERS):
                job_id, _ = self._submit(client, "s27")
                if job_id is None:
                    raise RuntimeError("warm-up job was refused")
                warm_ids.append(job_id)
            warm = []
            for job_id in warm_ids:
                record = client.wait(job_id, timeout=120.0, poll=0.05)
                warm.append(record["updated"] - record["created"])
            setup_s = ready_s + statistics.median(warm)
            return self._measure(client, setup_s)
        finally:
            daemon.stop()

    def _measure(self, client, setup_s: float) -> Result:
        outstanding: Dict[str, str] = {}  # job id -> circuit
        started: Dict[str, float] = {}
        finished: List[Tuple[Dict, float]] = []
        submit_s: List[float] = []
        # Calibration slices run through the window, one per
        # SLICE_EVERY ticks: host speed changes within seconds, so
        # slices at its edges do not describe it. The workers' load on
        # the slices is the same in every run of this workload.
        speed = HostSpeed()
        start = time.perf_counter()
        deadline = start + self.seconds
        jiffies = cpu_jiffies()
        tick = 0
        while True:
            now = time.perf_counter()
            want_more = (
                now < deadline or len(finished) + len(outstanding) < MIN_JOBS
            ) and now - start < HARD_STOP_S
            while want_more and len(outstanding) < OUTSTANDING:
                circuit = self._next_circuit()
                job_id, elapsed = self._submit(client, circuit)
                submit_s.append(elapsed)
                if job_id is None:
                    break
                outstanding[job_id] = circuit
            if not outstanding:
                break
            time.sleep(TICK_S)
            tick += 1
            if tick % SLICE_EVERY == 0:
                speed.sample()
            for record in client.jobs():
                job_id = record["id"]
                if job_id not in outstanding:
                    continue
                if record["state"] == "running" and record.get("worker"):
                    started[job_id] = float(record["worker"]["started"])
                elif record["state"] in ("done", "failed", "canceled"):
                    del outstanding[job_id]
                    self._finish(record, started.get(job_id), finished)
        # Both vCPUs are busy through the window, so time the hypervisor
        # stole from them stretched every job's wall time by about
        # 1 / (1 - steal); the calibration slices cover core speed.
        steal = steal_ratio(jiffies, cpu_jiffies())
        speed.sample()
        if not finished:
            return Result({}, {}, self.gate, ["no job completed"], speed)
        scale = speed.scale * (1.0 - steal)
        setup_s *= scale
        window = max(r["updated"] for r, _ in finished) - min(r["created"] for r, _ in finished)
        latencies = [scale * (r["updated"] - r["created"]) for r, _ in finished]
        plan_samples: Dict[str, List[float]] = defaultdict(list)
        for record, _ in finished:
            plan_samples[record["circuit"]].append(scale * float(record["result"]["seconds"]))
        plan_s, suite_s = suite_summary(plan_samples)

        fetch_start = time.perf_counter()
        traces = {r["id"]: self._trace(client, r["id"]) for r, _ in finished}
        fetch_s = time.perf_counter() - fetch_start
        peak = max(t[2] for t in traces.values())
        notes = [
            f"{len(finished)} jobs completed in {window:.1f}s (first submit to last done), "
            f"{steal:.4f} of CPU time stolen meanwhile"
        ]
        if (reportable_percentile(len(latencies)) or 0) < 75:
            notes.append(f"only {len(latencies)} jobs: job_p75_s has fewer than 10 samples beyond it")
        metrics = {
            "setup_s": (setup_s, "s"),
            "plan_s": (plan_s, "s"),
            "suite_s": (suite_s, "s"),
            "job_p50_s": (percentile(latencies, 50), "s"),
            "job_p75_s": (percentile(latencies, 75), "s"),
            "jobs_per_s": (len(finished) / (scale * window), "1/s"),
            "peak_rss_mb": (_mb(peak), "MB"),
            "ok_ratio": (self.gate.ok_ratio, "ratio"),
        }
        layers: Dict[str, Tuple[float, str]] = {}
        if self.trace:
            layers = self._layers(client, finished, traces, submit_s, plan_samples, scale)
            # The jobs trace themselves either way; what tracing adds
            # here is fetching and parsing their traces after the window.
            layers["trace.overhead_ratio"] = (fetch_s / window, "ratio")
        return Result(metrics, layers, self.gate, notes, speed, scale)

    def _finish(self, record: Dict, started: Optional[float], finished: List) -> None:
        circuit = record["circuit"]
        if record["state"] != "done":
            self.gate.fail(f"job_{record['state']}:{circuit}")
            return
        result = record.get("result") or {}
        if self.gate.record(circuit, result, result.get("verified") is True):
            finished.append((record, started))

    @staticmethod
    def _trace(client, job_id: str) -> Tuple[Dict[str, float], float, int]:
        status, text = client.request("GET", f"/jobs/{job_id}/trace")
        if status != 200 or not isinstance(text, str):
            return {}, 0.0, 0
        return trace_layer_seconds(text.splitlines())

    def _layers(self, client, finished, traces, submit_s, plan_samples, scale):
        health = client.health()
        per_layer: Dict[str, List[float]] = defaultdict(list)
        for record, _ in finished:
            layer_s, plan_wall, _peak = traces[record["id"]]
            for layer in LAYERS:
                per_layer[layer].append(layer_s.get(layer, 0.0))
            per_layer["other"].append(plan_wall - sum(layer_s.values()))
        # Jobs that started and finished between two ticks have no
        # observed start; they still count for latency, not for phases.
        phases = [split_job(r, s) for r, s in finished if s is not None]
        layers = {f"{layer}.s": (scale * statistics.median(v), "s") for layer, v in per_layer.items()}
        layers.update(
            {
                "serve.submit_s": (scale * statistics.median(submit_s), "s"),
                "serve.queue_wait_s": (scale * statistics.median(p["queue_wait_s"] for p in phases), "s"),
                "serve.spawn_s": (scale * statistics.median(p["spawn_s"] for p in phases), "s"),
                "serve.plan_s": (scale * statistics.median(p["plan_s"] for p in phases), "s"),
                "serve.attempts_per_job": (
                    sum(r["attempts"] for r, _ in finished) / len(finished),
                    "ratio",
                ),
                "serve.sheds": (float(health.get("shed", 0)), "count"),
                "serve.worker_rss_mb": (
                    statistics.median(_mb(t[2]) for t in traces.values()),
                    "MB",
                ),
            }
        )
        for name, value in medians(plan_samples).items():
            layers[f"{name}.s"] = (value, "s")
        return layers
