"""Benchmark of moneyflow: one workload, timed end to end or traced per layer.

    python3 mfbench/run.py --workload simulate-n5 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` every iteration runs untraced and the end-to-end metrics
are reported, each time scaled by the host calibration around it (``host.py``).
With ``--trace 1`` untraced and traced iterations alternate and
the per-layer metrics are reported. Every iteration's outputs are checked and
hashed; the last line of standard output is one JSON object. A failed check
makes the exit code 1; a checkout without ``src/moneyflow`` exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

import host

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".mfbench_work"

SETUP_PROBES = 25  # fresh-process set-ups per run, spread over the timed loop
TRACED_SETUPS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "rng.draws": ("count", "lower"),
    "rng.draw_ns": ("ns", "lower"),
    "scenario.load_s": ("s", "lower"),
    "network.builds": ("count", "lower"),
    "network.build_s": ("s", "lower"),
    "network.clones": ("count", "lower"),
    "network.clone_s": ("s", "lower"),
    "engine.events": ("count", "lower"),
    "engine.agent_updates": ("count", "lower"),
    "engine.organic_settlements": ("count", "lower"),
    "engine.observer_settlements": ("count", "lower"),
    "engine.noop_share": ("share", "lower"),
    "engine.run_self_s": ("s", "lower"),
    "engine.noop_update_us": ("us", "lower"),
    "engine.active_update_us": ("us", "lower"),
    "engine.trace_s": ("s", "lower"),
    "engine.trace_mb": ("MB", "lower"),
    "recorder.compile_s": ("s", "lower"),
    "recorder.settle_all_s": ("s", "lower"),
    "recorder.write_s": ("s", "lower"),
    "recorder.read_s": ("s", "lower"),
    "recorder.verify_s": ("s", "lower"),
    "recorder.record_bytes": ("bytes", "lower"),
    "retrieval.fits": ("count", "higher"),
    "retrieval.evaluations": ("count", "lower"),
    "retrieval.converged_share": ("share", "higher"),
    "retrieval.improving_share": ("share", "higher"),
    "retrieval.eval_ms_p50": ("ms", "lower"),
    "retrieval.eval_ms_p90": ("ms", "lower"),
    "retrieval.retrace_s": ("s", "lower"),
    "retrieval.error_s": ("s", "lower"),
    "retrieval.search_self_s": ("s", "lower"),
    "retrieval.fit_s_max": ("s", "lower"),
    "anticipation.replays": ("count", "higher"),
    "anticipation.pool_size": ("count", "higher"),
    "anticipation.pool_starts": ("count", "lower"),
    "anticipation.nonzero_shock_share": ("share", "higher"),
    "anticipation.fanout_speedup": ("ratio", "higher"),
    "anticipation.candidate_s": ("s", "lower"),
    "anticipation.replay_ms_p50": ("ms", "lower"),
    "anticipation.replay_ms_p90": ("ms", "lower"),
    "anticipation.divergence_s": ("s", "lower"),
    "anticipation.score_self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_share": ("share", "lower"),
    "trace.uncovered_share": ("share", "lower"),
    "host.calib_ms": ("ms", "lower"),
}


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def tail(values: list[float]) -> tuple[str, float]:
    """The highest of p90 and p75 with at least ten samples beyond it, else p50."""
    for p in (90, 75):
        if len(values) * (100 - p) >= 1000:
            return f"p{p}", statistics.quantiles(values, n=100)[p - 1]
    return "p50", statistics.median(values)


class Tally:
    """Attempted and failed iterations and set-ups, with the first messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, what: str, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages.extend(f"{what}: {m}" for m in failures)


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, workdir: Path):
        from workloads import JOBS, WORKLOADS  # imports moneyflow

        self.w = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.out = workdir / "out"
        self.out.mkdir(parents=True)
        self.jobs = JOBS
        self.tally = Tally()
        self.inputs = None
        self.ref = ""

    def setup(self) -> None:
        (self.workdir / "inputs").mkdir(exist_ok=True)
        self.inputs = self.w.setup(self.seed, self.workdir / "inputs")
        self.inputs_digest = self.inputs.digest()

    def iterate(self, what: str, jobs: int) -> float:
        """One checked iteration; returns its wall time in seconds."""
        start = time.perf_counter()
        outcome = self.w.iterate(self.inputs, self.out, jobs)
        elapsed = time.perf_counter() - start
        failures = list(outcome.failures)
        if not self.ref:
            self.ref = outcome.digest
        elif outcome.digest != self.ref:
            failures.append("outputs differ from iteration 0")
        self.tally.record(what, failures)
        return elapsed

    def probe_setup(self, index: int) -> float:
        """Set up again in a fresh interpreter; returns its set-up seconds."""
        where = self.workdir / f"probe-{index}"
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", self.w.name,
               "--seed", str(self.seed), "--probe", str(where)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
        failures = []
        result = {"setup_s": 0.0, "digest": ""}  # the run fails; keep the JSON valid
        if done.returncode != 0:
            failures.append(f"exited {done.returncode}: {done.stderr.strip()[-300:]}")
        else:
            result = json.loads(done.stdout.splitlines()[-1])
            if result["digest"] != self.inputs_digest:
                failures.append("inputs differ from the first set-up")
        self.tally.record(f"set-up {index}", failures)
        shutil.rmtree(where, ignore_errors=True)
        return result["setup_s"]

    def traced_iteration(self, tracer, jobs: int) -> tuple[float, dict]:
        from layers import layer_figures

        tracer.reset()
        with tracer.installed():
            elapsed = self.iterate("traced iteration", jobs)
        figures = layer_figures(tracer.spans, len(tracer.draws), elapsed)
        return elapsed, figures

    def pool_starts(self) -> tuple[float, int]:
        from tracer import counting_pools

        with counting_pools() as opened:
            elapsed = self.iterate("fan-out iteration", self.jobs)
        return elapsed, opened[0]

    def counts_of(self, figures: dict, pools: int) -> dict:
        from layers import COUNTS

        counts = {name: figures[name] for name in COUNTS}
        counts["anticipation.pool_starts"] = pools
        return counts

    # ------------------------------------------------------------------
    def run_untraced(self) -> tuple[dict, list[str]]:
        """Time iterations and fresh set-ups, each scaled by the host
        calibration taken just before and just after it."""
        from tracer import Tracer

        self.setup()
        self.iterate("iteration 0", self.jobs)
        raw: dict[str, list[float]] = {"wall_s": [], "setup_s": []}
        scaled: dict[str, list[float]] = {"wall_s": [], "setup_s": []}
        calibs: list[float] = []

        def timed(metric: str, work: Callable[[], float], spread: bool = False) -> None:
            before = host.calib_ms(spread)
            seconds = work()
            after = host.calib_ms(spread)
            calibs.extend((before, after))
            raw[metric].append(seconds)
            scaled[metric].append(host.scaled(seconds, before, after))

        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            probes = len(raw["setup_s"])
            done = len(raw["wall_s"])
            if probes < SETUP_PROBES and elapsed >= probes * self.seconds / SETUP_PROBES:
                timed("setup_s", lambda: self.probe_setup(probes))
            elif elapsed < self.seconds or not done:
                timed("wall_s", lambda: self.iterate(f"iteration {done + 1}", self.jobs),
                      spread=self.w.fans_out)
            else:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        # Counts come from one traced iteration after the timed ones.
        _, figures = self.traced_iteration(Tracer(), 1)
        pools = self.pool_starts()[1] if self.w.fans_out else 0
        counts = self.counts_of(figures, pools)

        metrics = {name: statistics.median(values) for name, values in scaled.items()}
        metrics["peak_rss_mb"] = peak_rss_mb
        lines = [
            f"{name}={metrics[name]:.6f} samples={len(values)} "
            f"iqr={iqr(values) / metrics[name]:.1%} raw_median={statistics.median(raw[name]):.6f} "
            "raw_{}={:.6f}".format(*tail(raw[name]))
            for name, values in scaled.items()
        ]
        lines += [
            f"(times scaled to a host whose calibration loop takes {host.REFERENCE_MS} ms; "
            f"here it took {statistics.median(calibs):.3f} ms, median of {len(calibs)})",
            f"peak_rss_mb={peak_rss_mb:.3f}",
        ]
        return metrics, lines + self.footer(counts)

    def run_traced(self) -> tuple[dict, list[str]]:
        from tracer import Tracer, draw_ns

        tracer = Tracer()
        load_s = []
        for _ in range(TRACED_SETUPS):
            tracer.reset()
            with tracer.installed():
                self.setup()
            load_s.append(sum(s.duration for s in tracer.spans if s.name == "scenario.load_scenario"))
        self.iterate("iteration 0", self.jobs)

        untraced, traced, fanned, calibs, layer = [], [], [], [], []
        counts, pools = None, 0
        start = time.perf_counter()
        while time.perf_counter() - start < self.seconds or not traced:
            calibs.append(host.calib_ms(self.w.fans_out))
            untraced.append(self.iterate("untraced iteration", 1))
            elapsed, figures = self.traced_iteration(tracer, 1)
            traced.append(elapsed)
            layer.append(figures)
            if self.w.fans_out:
                elapsed, pools = self.pool_starts()
                fanned.append(elapsed)
            calibs.append(host.calib_ms(self.w.fans_out))
            seen = self.counts_of(figures, pools)
            if counts is None:
                counts = seen
            elif seen != counts:
                changed = sorted(k for k in seen if seen[k] != counts[k])
                self.tally.record("traced iteration", [f"counts changed: {', '.join(changed)}"])

        metrics = {name: statistics.median(f[name] for f in layer) for name in layer[0]}
        metrics.update(counts)
        metrics["rng.draw_ns"] = draw_ns(tracer.draws)
        metrics["scenario.load_s"] = statistics.median(load_s)
        metrics["anticipation.fanout_speedup"] = (
            statistics.median(untraced) / statistics.median(fanned) if fanned else 0.0)
        metrics["trace.overhead_share"] = statistics.median(traced) / statistics.median(untraced) - 1
        metrics["host.calib_ms"] = statistics.median(calibs)
        lines = [f"traced iterations={len(traced)} untraced={len(untraced)} fan-out={len(fanned)}"]
        return {name: metrics[name] for name in PER_LAYER}, lines + self.footer(counts)

    def footer(self, counts: dict) -> list[str]:
        digest = hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest()
        t = self.tally
        share = t.failed / t.attempted if t.attempted else 0.0
        return [
            f"failed_share={share} ({t.failed}/{t.attempted})",
            f"output_digest={self.ref}",
            f"counts_digest={digest}",
        ]


def probe(workload: str, seed: int, where: Path) -> None:
    """Time one set-up in this fresh interpreter and print it as JSON."""
    start = time.perf_counter()
    import moneyflow  # noqa: F401  (the import is part of set-up)
    from workloads import WORKLOADS

    inputs = WORKLOADS[workload].setup(seed, where)
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "digest": inputs.digest()}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("simulate-n5", "fit-cycle", "anticipate-cycle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "moneyflow" / "__init__.py").is_file():
        print(f"mfbench: {SRC / 'moneyflow'} not found; run from the root of a moneyflow checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe is not None:
        args.probe.mkdir(parents=True)
        probe(args.workload, args.seed, args.probe)
        return 0

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        bench = Bench(args.workload, args.seed, args.seconds, workdir)
        values, lines = bench.run_traced() if args.trace else bench.run_untraced()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    units = END_TO_END if not args.trace else {k: u for k, (u, _) in PER_LAYER.items()}
    tally = bench.tally
    for message in tally.messages[:20]:
        print(f"mfbench: FAILED {message}", file=sys.stderr)
    print(f"mfbench {args.workload} seed={args.seed} trace={args.trace}")
    for line in lines:
        print(f"  {line}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
