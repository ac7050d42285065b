"""Per-layer figures of one traced iteration, read off its spans.

`COUNTS` are exact: they must repeat across iterations and runs of the same
seed. Everything else in `layer_figures` is a time, in the unit its name
carries. Layers a workload does not use read 0.
"""

from __future__ import annotations

import statistics
from pathlib import Path
from typing import Sequence

from tracer import Span, self_times

COUNTS = (
    "rng.draws",
    "network.builds",
    "network.clones",
    "engine.events",
    "engine.agent_updates",
    "engine.organic_settlements",
    "engine.observer_settlements",
    "engine.noop_share",
    "engine.trace_mb",
    "recorder.record_bytes",
    "retrieval.fits",
    "retrieval.evaluations",
    "retrieval.converged_share",
    "retrieval.improving_share",
    "anticipation.replays",
    "anticipation.pool_size",
    "anticipation.nonzero_shock_share",
)


def _quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def _is_noop(update) -> bool:
    """A non-exempt wake-up that changed no rate."""
    return not any(update.payload["deltas"].values())


def layer_figures(spans: Sequence[Span], draws: int, iteration_s: float) -> dict[str, float]:
    """Counts and per-layer times of one iteration that took `iteration_s`."""
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def spans_of(name: str) -> list[Span]:
        return [spans[i] for i in by_name.get(name, ())]

    def total(name: str) -> float:
        return sum((spans[i].duration for i in by_name.get(name, ())), 0.0)

    def total_self(name: str) -> float:
        return sum((own[i] for i in by_name.get(name, ())), 0.0)

    f: dict[str, float] = {"rng.draws": draws}

    builds, clones = spans_of("network.build_network"), spans_of("network.clone")
    f["network.builds"], f["network.build_s"] = len(builds), total("network.build_network")
    f["network.clones"], f["network.clone_s"] = len(clones), total("network.clone")

    events = updates = organic = 0
    noop_us: list[float] = []
    active_us: list[float] = []
    for span in spans_of("engine.run"):
        for ev in span.call[2][1]:
            events += 1
            if ev.kind == "AgentUpdate":
                updates += 1
            elif ev.kind == "Settlement" and not ev.payload["observer"]:
                organic += 1
    observer = len(by_name.get("engine.settle_all", ()))
    for i in by_name.get("engine.update_agent", ()):
        event = spans[i].call[2]
        if not event.payload.get("exempt"):
            (noop_us if _is_noop(event) else active_us).append(own[i] * 1e6)
    f["engine.events"] = events + observer
    f["engine.agent_updates"] = updates
    f["engine.organic_settlements"] = organic
    f["engine.observer_settlements"] = observer
    f["engine.noop_share"] = _share(len(noop_us), len(noop_us) + len(active_us))
    f["engine.run_self_s"] = total_self("engine.run")
    f["engine.noop_update_us"] = statistics.fmean(noop_us) if noop_us else 0.0
    f["engine.active_update_us"] = statistics.fmean(active_us) if active_us else 0.0
    f["engine.trace_s"] = total("engine.event_trace")
    f["engine.trace_mb"] = sum(len(s.call[2]) for s in spans_of("engine.event_trace")) / 1e6

    written = {str(s.call[0][1]) for s in spans_of("recorder.write_record")}
    f["recorder.compile_s"] = total_self("recorder.run_record")
    f["recorder.settle_all_s"] = total("engine.settle_all")
    f["recorder.write_s"] = total("recorder.write_record")
    f["recorder.read_s"] = total("recorder.read_record")
    f["recorder.verify_s"] = total("recorder.verify_record")
    f["recorder.record_bytes"] = sum(Path(p).stat().st_size for p in written)

    fits = [s.call[2] for s in spans_of("retrieval.fit")]
    evaluations = sum(r.evaluations for r in fits)
    eval_ms = [(a.duration + b.duration) * 1e3 for a, b in
               zip(spans_of("retrieval.retrace"), spans_of("retrieval.reproduction_error"))]
    f["retrieval.fits"] = len(fits)
    f["retrieval.evaluations"] = evaluations
    f["retrieval.converged_share"] = _share(sum(r.converged for r in fits), len(fits))
    f["retrieval.improving_share"] = _share(sum(len(r.trace) for r in fits), evaluations)
    f["retrieval.eval_ms_p50"] = _quantile(eval_ms, 0.5)
    f["retrieval.eval_ms_p90"] = _quantile(eval_ms, 0.9)
    f["retrieval.retrace_s"] = total("retrieval.retrace")
    f["retrieval.error_s"] = total("retrieval.reproduction_error")
    f["retrieval.search_self_s"] = total_self("retrieval.fit")
    f["retrieval.fit_s_max"] = max((s.duration for s in spans_of("retrieval.fit")), default=0.0)

    replays, candidates = [], []
    pool_size = 0
    for span in spans_of("anticipation.simulate_candidate"):
        (replays if span.call[1].get("extra_shocks") else candidates).append(span)
        if span.parent >= 0 and spans[span.parent].name == "anticipation.score_candidates":
            pool_size = len(span.call[2].imbalance_pool)  # the shared reference run
    shocks = [shock for s in replays for shock in s.call[1]["extra_shocks"]]
    f["anticipation.replays"] = len(replays)
    f["anticipation.pool_size"] = pool_size
    f["anticipation.nonzero_shock_share"] = _share(sum(s.amount != 0 for s in shocks), len(shocks))
    f["anticipation.candidate_s"] = sum((s.duration for s in candidates), 0.0)
    f["anticipation.replay_ms_p50"] = _quantile([s.duration * 1e3 for s in replays], 0.5)
    f["anticipation.replay_ms_p90"] = _quantile([s.duration * 1e3 for s in replays], 0.9)
    f["anticipation.divergence_s"] = total("anticipation.divergence")
    f["anticipation.score_self_s"] = (total_self("anticipation.robustness_score")
                                      + total_self("anticipation.score_candidates"))

    f["cli.self_s"] = total_self("cli.run_cli")
    covered = sum(s.duration for s in spans if s.parent < 0)
    f["trace.uncovered_share"] = max(0.0, iteration_s - covered) / iteration_s
    return f

