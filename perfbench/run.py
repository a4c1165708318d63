"""ordpoly benchmark: one workload for a fixed time, outputs checked.

Run from the repository root:

  python3 perfbench/run.py --workload grid --seed 1 --seconds 30 --trace 0

Workloads: grid, ladder, wide_n, cli (see perfbench/README.md).  Every
pass runs in a fresh worker interpreter (perfbench/worker.py), one at a
time, with the OpenBLAS thread count pinned in the worker's environment.
With ``--trace 0`` the last line of standard output reports the
end-to-end metrics named in BENCHMARK.json, each timing scaled by the
machine's speed as a reference task (perfbench/calibrate.py) measured it
just before and just after; with ``--trace 1`` it reports
the per-layer metrics from traced passes, alternated with untraced ones
to measure the tracing overhead.  The line before it records the
environment and the sample counts and quartiles behind each median.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
CALIBRATE = HERE / "calibrate.py"

BLAS_THREADS = 2
# Timings are reported as on a machine where calibrate.py gets ready in
# this time; it is about its median on a two-vCPU Xeon VM.
REFERENCE_S = 0.15
# A timing is scaled by the mean of this many reference runs on each side.
REFS_AROUND = 2
# Timings reported as measured: the ladder pass is mostly two-thread BLAS
# on about 480 MB, which does not slow down with the single-threaded
# reference; scaling it more than doubled its spread between seeds.
UNCALIBRATED = {("ladder", "wall_s")}
COLD_CALLS_PER_ROUND = 3
FILL_STEP_S = 1.5
WORKER_TIMEOUT_S = 150
HARD_LIMIT_S = 170


def _pin_worker_env() -> None:
    """Set what every worker and CLI call inherits; this process runs no BLAS.

    Bytecode caching is left on, as in an installed package, so set-up and
    cold starts do not include compiling the library.
    """
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")] + ([path] if path else []))
    nproc = len(os.sched_getaffinity(0))
    os.environ["OPENBLAS_NUM_THREADS"] = str(min(BLAS_THREADS, nproc))


class Runner:
    """Starts workers one at a time and pools what they report."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.attempted = 0
        self.failures: list[str] = []
        # (time, metric, raw value) for every timing, and (time, seconds)
        # for every reference run, both in the order taken.
        self.samples: list[tuple[float, str, float]] = []
        self.refs: list[tuple[float, float]] = []
        small = [c for c in workloads.inputs("cli", seed, 0) if c[1]]
        self._cycle = itertools.cycle(small)

    def worker(self, *args: str, script: Path = WORKER) -> tuple[float, dict | None]:
        """Run one worker; returns its spawn time and its report."""
        timeout = min(WORKER_TIMEOUT_S, self.deadline - time.monotonic())
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(script), *args],
                cwd=ROOT,
                capture_output=True,
                timeout=max(timeout, 1),
            )
        except subprocess.TimeoutExpired:
            self._broken([script.name, *args], "timed out")
            return spawned, None
        lines = proc.stdout.decode(errors="replace").strip().splitlines()
        try:
            report = json.loads(lines[-1]) if proc.returncode == 0 else None
        except (IndexError, ValueError):
            report = None
        if report is None:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
            self._broken([script.name, *args], f"exit {proc.returncode}: {' | '.join(tail)}")
        return spawned, report

    def _broken(self, args, why: str) -> None:
        self.attempted += 1
        self.failures.append(f"{' '.join(args)}: {why}")

    def _args(self, mode: str, index: int) -> list[str]:
        return [mode, "--workload", self.workload, "--seed", str(self.seed),
                "--index", str(index)]

    def sample(self, metric: str, value: float) -> None:
        self.samples.append((time.monotonic(), metric, value))

    def reference(self) -> None:
        """One run of the calibration task."""
        spawned, report = self.worker(script=CALIBRATE)
        if report:
            self.refs.append((time.monotonic(), report["ready"] - spawned))

    def calibrated(self) -> dict[str, list[float]]:
        """Every timing scaled to the machine speed ``REFERENCE_S`` stands for.

        A timing is multiplied by ``REFERENCE_S`` over the mean time of the
        ``REFS_AROUND`` reference runs just before and just after it, so a
        machine that slows down for a while slows both alike and the
        ratio stays.
        """
        stamps = [t for t, _ in self.refs]
        scaled: dict[str, list[float]] = {}
        for t, name, value in self.samples:
            i = bisect.bisect_right(stamps, t)
            near = [x for _, x in self.refs[max(i - REFS_AROUND, 0):i + REFS_AROUND]]
            if near and (self.workload, name) not in UNCALIBRATED:
                value *= REFERENCE_S / statistics.mean(near)
            scaled.setdefault(name, []).append(value)
        return scaled

    def cold_calls(self, count: int) -> None:
        """The next ``count`` small CLI calls, cycling in the seed's order,
        each followed by a reference run."""
        gate = workloads.Gate()
        for _ in range(count):
            for cold in workloads.cli_pass([next(self._cycle)], gate, False)["cold_s"]:
                self.sample("cold_start_ms", 1000 * cold)
            self.reference()
        self.attempted += gate.attempted
        self.failures += gate.failures

    def setup(self) -> None:
        """One set-up-only worker, followed by a reference run."""
        spawned, report = self.worker(*self._args("setup", 0))
        if report:
            self.sample("setup_s", report["ready"] - spawned)
        self.reference()

    def one_pass(self, index: int, traced: bool) -> dict | None:
        args = self._args("pass", index) + (["--trace"] if traced else [])
        spawned, report = self.worker(*args)
        if report is None:
            return None
        report["elapsed"] = time.monotonic() - spawned
        if not traced:
            self.sample("setup_s", report["ready"] - spawned)
            self.sample("wall_s", report["wall_s"])
            for cold in report["cold_s"]:
                self.sample("cold_start_ms", 1000 * cold)
        self.attempted += report["attempted"]
        self.failures += report["failures"]
        return report


def _environment(runner: Runner) -> dict:
    _, report = runner.worker("env")
    info = dict(report or {})
    info["nproc"] = len(os.sched_getaffinity(0))
    info["blas_threads"] = int(os.environ["OPENBLAS_NUM_THREADS"])
    info["commit"] = _commit()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    info["src_sha256"] = digest.hexdigest()
    return info


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.decode().strip() or None


def _summary(values: list[float]) -> dict:
    if not values:
        return {"n": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": statistics.median(values), "q3": q3}


def measure(workload: str, seed: int, seconds: float, names: list[str] | None) -> dict:
    """Repeat rounds until ``seconds`` would be exceeded, at least one.

    An untraced round is one pass, one extra set-up sample and the next
    few small CLI calls, each followed by a run of the reference task, so
    the samples of every metric are spread over the whole run and each
    has reference runs close on both sides.  Time too short for another
    round goes to more set-up samples and small calls.  With the
    per-layer metric ``names`` given, the run alternates untraced and
    traced passes instead.
    """
    trace = names is not None
    start = time.monotonic()
    runner = Runner(workload, seed, start + HARD_LIMIT_S)
    env = _environment(runner)
    untraced: list[dict] = []
    traced: list[dict] = []
    rounds: list[float] = []
    if not trace:
        for _ in range(REFS_AROUND):
            runner.reference()
    while True:
        began = time.monotonic()
        want_trace = trace and len(untraced) > len(traced)
        # A traced pass uses the order of the untraced pass before it.
        report = runner.one_pass(len(traced) if want_trace else len(untraced), want_trace)
        if report is None:
            break
        (traced if want_trace else untraced).append(report)
        if not trace:
            runner.reference()
            runner.setup()
            runner.cold_calls(COLD_CALLS_PER_ROUND)
        now = time.monotonic()
        rounds.append(now - began)
        done = bool(traced) or not trace
        if done and now - start + statistics.median(rounds) > seconds:
            break
    # Spend what is left of the run on more set-up and cold-start samples.
    while not trace and time.monotonic() - start + FILL_STEP_S < seconds:
        runner.setup()
        runner.cold_calls(COLD_CALLS_PER_ROUND)

    detail = {"env": env, "passes": len(untraced), "traced_passes": len(traced)}
    if trace:
        metrics = _per_layer(names, untraced, traced, detail)
    else:
        raw: dict[str, list[float]] = {}
        for _, name, value in runner.samples:
            raw.setdefault(name, []).append(value)
        detail["raw"] = {k: _summary(v) for k, v in raw.items()}
        detail["reference_s"] = _summary([x for _, x in runner.refs])
        samples = runner.calibrated()
        samples["peak_rss_mb"] = [r["rss_mb"] for r in untraced]
        detail["samples"] = {k: _summary(v) for k, v in samples.items()}
        metrics = {k: statistics.median(v) for k, v in samples.items() if v}
        if untraced:
            # The run's peak, not a typical pass: it depends on input order.
            metrics["peak_rss_mb"] = max(samples["peak_rss_mb"])
    attempted = max(runner.attempted, 1)
    detail["failed_ratio"] = len(runner.failures) / attempted
    detail["failures"] = runner.failures[:20]
    return {
        "detail": detail,
        "correct": not runner.failures and bool(untraced),
        "attempted": attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }


def _per_layer(names, untraced: list[dict], traced: list[dict], detail: dict) -> dict:
    """Medians over traced passes; a layer the workload never calls reads 0."""
    if not traced:
        return {}
    metrics = {
        name: statistics.median(r["values"].get(name, 0.0) for r in traced)
        for name in names
    }
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    detail["wall_s"] = {"untraced": untraced_wall, "traced": traced_wall}
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ordpoly" / "__init__.py").is_file():
        print(f"error: no ordpoly sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _pin_worker_env()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    result = measure(args.workload, args.seed, args.seconds, list(units) if args.trace else None)
    metrics = result.pop("metrics")
    for line in result["detail"]["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps(result.pop("detail"), sort_keys=True))
    missing = [name for name in units if name not in metrics]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    result["metrics"] = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
