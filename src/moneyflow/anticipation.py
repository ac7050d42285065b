"""Trajectory anticipation by robustness under internally generated shocks.

Candidate futures are alternative policy schedules simulated forward from a
common starting point. Each candidate is scored by replaying it under seeded
shock sequences whose magnitudes resample the per-event imbalances of an
unshocked reference run (the disturbances come from within the system, not
from an outside noise law) and measuring how far the shocked trajectories
stray from the candidate's own unshocked one. Candidate 0 of a set serves as
the shared reference for both the shock pool and the coordinate scales, so
every candidate faces the same disturbances (common random numbers); a
candidate scored on its own is its own reference. The candidate with the
smallest mean divergence wins.

A replay agrees with its candidate's unshocked run up to its first nonzero
shock, so it resumes from that run's checkpoint at the last term boundary
before the shock instead of simulating from time 0; the divergences are the
same to the bit.

The divergence metric here is max-over-horizon scaled Euclidean distance with
a harmonic score 1/(1+divergence); both are conventions, pluggable via the
`scales` argument and this module's small function surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import sqrt
from typing import Mapping, Sequence

from . import rng
from .network import NetworkState, build_network
from .recorder import BalanceSheet, Record, Recorder, run_record
from .retrieval import Assignment, FitConfig, apply_assignment, fit
from .scenario import PolicyAction, ScenarioError, ScenarioSpec, ShockSpec, as_fraction

DEFAULT_DIMS = (
    "notes_outstanding",
    "discount_rate",
    "government_securities_outstanding",
    "securities_interest_rate",
)

Trajectory = list[tuple[float, ...]]

# Steps of the multiplier factor grid on each side of 1 (see SamplerConfig),
# and shocks per term of each shock replay.
GRID = 8
SHOCKS_PER_TERM = 1


def extract_trajectory(record: Record, dims: Sequence[str] = DEFAULT_DIMS) -> Trajectory:
    """One point per term: the named aggregate figures in the given order."""
    return [_phase_point(sheet, dims) for sheet in record.sheets]


def _phase_point(sheet: BalanceSheet, dims: Sequence[str]) -> tuple[float, ...]:
    aggregates = sheet.aggregates()
    point = []
    for dim in dims:
        if dim not in aggregates:
            raise KeyError(f"unknown trajectory dimension {dim!r}")
        point.append(float(aggregates[dim]))
    return tuple(point)


def divergence(base: Trajectory, perturbed: Trajectory,
               scales: Sequence[float] | None = None) -> float:
    """Max over terms of the scaled Euclidean distance between phase points.

    The default per-coordinate scale is max(1, coordinate range over both
    trajectories), which keeps the metric symmetric in its arguments; pass
    explicit scales (for example the reference candidate's) to pin the
    normalization across comparisons.
    """
    if len(base) != len(perturbed):
        raise ValueError(f"trajectory length mismatch: {len(base)} vs {len(perturbed)}")
    if not base:
        return 0.0
    n_dims = len(base[0])
    for t, (a, b) in enumerate(zip(base, perturbed)):
        if len(a) != n_dims or len(b) != n_dims:
            raise ValueError(f"dimension mismatch at term {t}")
    if scales is None:
        scales = default_scales(base + perturbed)
    elif len(scales) != n_dims:
        raise ValueError(f"expected {n_dims} scales, got {len(scales)}")
    worst = 0.0
    for a, b in zip(base, perturbed):
        sq = 0.0
        for x, y, s in zip(a, b, scales):
            d = (x - y) / s
            sq += d * d
        worst = max(worst, sqrt(sq))
    return worst


def default_scales(base: Trajectory) -> list[float]:
    """max(1, coordinate range) per dimension over the given points."""
    n_dims = len(base[0]) if base else 0
    scales = []
    for d in range(n_dims):
        column = [point[d] for point in base]
        scales.append(max(1.0, max(column) - min(column)))
    return scales


@dataclass(frozen=True)
class Candidate:
    """A simulated future: policy schedule, record and trajectory."""

    id: int
    schedule: tuple[PolicyAction, ...]
    record: Record
    trajectory: Trajectory
    imbalance_pool: tuple[float, ...]  # |observed deficit| per event of the unshocked run


@dataclass(frozen=True)
class SamplerConfig:
    """Seeded multiplier perturbations defining the non-baseline candidates.

    Perturbed channels default to every channel whose multiplier is not 1
    (the policy instruments). Factors are drawn from the symmetric rational
    grid 1 + k*bound/GRID, k in [-GRID, GRID], with `bound` in [0, 1] so no
    factor is negative, and take effect at the first term boundary so every
    candidate shares the term-0 phase point.
    """

    bound: float = 0.2
    channels: tuple[str, ...] | None = None
    seed: int = 0


@dataclass(frozen=True)
class ReplayConfig:
    """Shock replays per candidate. `jobs` > 1 runs a set's replays in that
    many worker processes; the results do not depend on it."""

    replays: int = 32
    shock_scale: float = 1.0
    seed: int = 0
    jobs: int = 1


@dataclass(frozen=True)
class CandidateScore:
    candidate_id: int
    mean_divergence: float
    score: float
    divergences: tuple[float, ...]


@dataclass(frozen=True)
class RobustnessReport:
    scores: tuple[CandidateScore, ...]
    selected: int
    dims: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "dims": list(self.dims),
            "selected": self.selected,
            "candidates": [
                {
                    "id": s.candidate_id,
                    "mean_divergence": s.mean_divergence,
                    "score": s.score,
                    "divergences": list(s.divergences),
                }
                for s in self.scores
            ],
        }


def simulate_candidate(spec: ScenarioSpec, candidate_id: int, n_terms: int,
                       dims: Sequence[str] = DEFAULT_DIMS,
                       schedule: Sequence[PolicyAction] = (),
                       assignment: Assignment | None = None,
                       checkpoints: list[NetworkState] | None = None) -> Candidate:
    """Run one candidate future and collect its trajectory and imbalance pool.

    A `checkpoints` list receives the run's state at the opening boundary of
    each term (see `run_record`), for shock replays to resume from.
    """
    candidate_spec = spec.with_extra_policy(schedule) if schedule else spec
    state = build_network(candidate_spec)
    if assignment is not None:
        apply_assignment(state, assignment)
    record = run_record(state, n_terms, checkpoints)
    pool = tuple(
        abs(float(ev.payload["deficit"]))
        for ev in state.log
        if ev.kind == "AgentUpdate" and not ev.payload.get("exempt") and ev.payload["deficit"] != 0
    )
    return Candidate(
        id=candidate_id,
        schedule=tuple(schedule),
        record=record,
        trajectory=extract_trajectory(record, dims),
        imbalance_pool=pool,
    )


def generate_candidates(spec: ScenarioSpec, n: int, sampler: SamplerConfig = SamplerConfig(),
                        *, n_terms: int, dims: Sequence[str] = DEFAULT_DIMS) -> list[Candidate]:
    """Candidate 0 is the unmodified continuation; 1..n-1 carry sampled schedules."""
    if n < 1:
        raise ValueError("need at least one candidate")
    channels = sampler.channels
    multipliers = {c.id: c.multiplier for c in spec.channels}
    if channels is None:
        channels = tuple(cid for cid, multiplier in multipliers.items() if multiplier != 1)
    for channel_id in channels:
        if channel_id not in multipliers:
            raise ScenarioError(f"sampler names unknown channel {channel_id!r}")
    if not 0 <= sampler.bound <= 1:
        raise ScenarioError(f"sampler bound must lie in [0, 1], got {sampler.bound!r}")
    key = rng.stream_key(sampler.seed, rng.string_key("candidate-multipliers"))
    bound = as_fraction(sampler.bound, "sampler bound")
    start = spec.term_length  # first boundary; keeps term 0 common to all candidates

    candidates = [simulate_candidate(spec, 0, n_terms, dims)]
    counter = 0
    for cid in range(1, n):
        schedule = []
        for channel_id in channels:
            k = rng.below(2 * GRID + 1, key, counter) - GRID
            counter += 1
            factor = 1 + Fraction(k, GRID) * bound
            schedule.append(PolicyAction(start, "set_multiplier", channel_id,
                                         multipliers[channel_id] * factor))
        candidates.append(simulate_candidate(spec, cid, n_terms, dims, schedule=schedule))
    return candidates


def sample_shock_sequence(pool: Sequence[float], spec: ScenarioSpec, config: ReplayConfig,
                          replay_index: int, n_terms: int) -> list[ShockSpec]:
    """Seeded disturbance sequence: times and channels uniform, magnitudes from the pool."""
    if not pool or config.shock_scale == 0:
        pool = (0.0,)
    channel_ids = tuple(sorted(c.id for c in spec.channels))
    count = SHOCKS_PER_TERM * n_terms
    key = rng.stream_key(config.seed, rng.string_key("replay-shocks"), replay_index)
    horizon = n_terms * spec.term_length
    shocks = []
    for k in range(count):
        time = rng.unit(key, 4 * k) * horizon
        channel = channel_ids[rng.below(len(channel_ids), key, 4 * k + 1)]
        magnitude = pool[rng.below(len(pool), key, 4 * k + 2)] * config.shock_scale
        sign = 1 if rng.below(2, key, 4 * k + 3) == 0 else -1
        shocks.append(ShockSpec(time=time, channel=channel, amount=sign * round(magnitude)))
    return shocks


def _resume_term(time: float, term_length: float, n_terms: int) -> int:
    """The last term whose opening boundary is at or before `time`.

    Boundaries are the Recorder's own `(k + 1) * term_length`, so an item at
    `time` is still pending in the checkpoint taken there.
    """
    k = 0
    while k + 1 < n_terms and (k + 1) * term_length <= time:
        k += 1
    return k


def _run_replay(task) -> float:
    """Divergence of one replay, resumed from the checkpoint of term k.

    Terms before k match the base exactly, so only terms k onwards run; the
    shocked spec replaces the checkpoint's, whose shock cursor still counts
    only the scenario's own shocks, as no replay shock comes before k.
    """
    checkpoint, term, shocks, dims, base_trajectory, scales = task
    state = checkpoint.clone()
    state.spec = state.spec.with_extra_shocks(shocks)
    recorder = Recorder(state, term)
    shocked = [_phase_point(recorder.record_term(), dims)
               for _ in range(term, len(base_trajectory))]
    return divergence(base_trajectory[term:], shocked, scales)


def _map_tasks(fn, tasks, jobs: int) -> list:
    """Order-preserving map, fanned out over one pool of `jobs` worker
    processes when jobs > 1. Tasks travel in chunks of about a quarter of a
    worker's share: few round trips, and unequal chunks still even out."""
    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunksize = max(1, len(tasks) // (4 * jobs))
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            return list(pool.map(fn, tasks, chunksize=chunksize))
    return [fn(task) for task in tasks]


def select_most_robust(report: RobustnessReport) -> int:
    """Argmax of score; ties break toward the lowest candidate index."""
    if not report.scores:
        raise ValueError("empty robustness report")
    best = max(report.scores, key=lambda s: (s.score, -s.candidate_id))
    return best.candidate_id


def score_candidates(candidates: Sequence[Candidate], spec: ScenarioSpec,
                     config: ReplayConfig, dims: Sequence[str] = DEFAULT_DIMS,
                     assignments: Mapping[int, Assignment] | None = None) -> RobustnessReport:
    """Score a candidate set against one shared disturbance ensemble.

    A candidate's base is its unshocked run, re-simulated under its
    assignment when that has offsets or gain overrides (fit-candidates
    mode). Candidate 0's base is the reference: its imbalance pool, scaled by
    `shock_scale`, feeds the shock magnitudes and its trajectory fixes the
    coordinate scales, so scores compare across candidates. Each candidate is
    replayed under its assignment and measured against its own base.

    A replay runs only from the last term boundary before its first nonzero
    shock: each base runs unshocked once, here, keeping a checkpoint at every
    term boundary (the same run yields the re-simulated base), and the replay
    resumes from the checkpoint with its nonzero shocks. A zero shock only
    logs an event, and a replay without a nonzero one is its base, so it
    diverges by 0.0 without running. The replays that run form one task list,
    run in this process or, with `jobs` > 1, in one process pool. A candidate
    with no replays scores 1.
    """
    if not candidates:
        raise ValueError("empty candidate set")
    dims, assignments = tuple(dims), assignments or {}
    bases, checkpoints = [], []
    for candidate in candidates:
        assignment = assignments.get(candidate.id)
        states: list[NetworkState] = []
        if assignment is not None and (assignment.offsets or assignment.gain_overrides):
            candidate = simulate_candidate(spec, candidate.id, len(candidate.record.sheets), dims,
                                           candidate.schedule, assignment, states)
        bases.append(candidate)
        checkpoints.append(states)
    reference = bases[0]
    scales = default_scales(reference.trajectory)
    divergences = [[0.0] * config.replays for _ in bases]
    tasks, slots = [], []
    for i, base in enumerate(bases):
        n_terms = len(base.record.sheets)
        for m in range(config.replays):
            shocks = [shock for shock in
                      sample_shock_sequence(reference.imbalance_pool, spec, config, m, n_terms)
                      if shock.amount]
            if not shocks:
                continue
            if not checkpoints[i]:
                simulate_candidate(spec, base.id, n_terms, dims, base.schedule,
                                   assignments.get(base.id), checkpoints[i])
            term = _resume_term(min(shock.time for shock in shocks), spec.term_length, n_terms)
            tasks.append((checkpoints[i][term], term, shocks, dims, base.trajectory, scales))
            slots.append((i, m))
    for (i, m), value in zip(slots, _map_tasks(_run_replay, tasks, config.jobs)):
        divergences[i][m] = value
    scores = []
    for base, own in zip(bases, map(tuple, divergences)):
        mean = sum(own) / len(own) if own else 0.0
        scores.append(CandidateScore(base.id, mean, 1.0 / (1.0 + mean), own))
    report = RobustnessReport(tuple(scores), selected=-1, dims=dims)
    return replace(report, selected=select_most_robust(report))


def robustness_score(candidate: Candidate, spec: ScenarioSpec, config: ReplayConfig,
                     dims: Sequence[str] = DEFAULT_DIMS,
                     assignment: Assignment | None = None) -> tuple[float, list[float]]:
    """Score and divergences of one candidate scored as a set of its own.

    Its base is then the reference: the shocks resample its own imbalance
    pool and the divergences are measured in its own coordinate scales.
    """
    assignments = {candidate.id: assignment} if assignment is not None else None
    (score,) = score_candidates([candidate], spec, config, dims, assignments).scores
    return score.score, list(score.divergences)


@dataclass(frozen=True)
class AnticipateConfig:
    candidates: int = 5
    horizon_terms: int = 8
    dims: tuple[str, ...] = DEFAULT_DIMS
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    replay: ReplayConfig = field(default_factory=ReplayConfig)
    fit_candidates: bool = False
    fit: FitConfig = field(default_factory=lambda: FitConfig(budget=400, starts=2))


def anticipate(spec: ScenarioSpec, config: AnticipateConfig = AnticipateConfig()
               ) -> tuple[RobustnessReport, list[Candidate]]:
    """Full pipeline: generate candidate futures, score robustness, select.

    With `fit_candidates` enabled, each candidate's record is first retraced
    through the retrieval module and the fitted offsets are applied during its
    replays, honoring the reading that every candidate trajectory is itself a
    record whose movement must be retrieved before scoring.
    """
    candidates = generate_candidates(
        spec, config.candidates, config.sampler,
        n_terms=config.horizon_terms, dims=config.dims,
    )
    assignments: dict[int, Assignment] = {}
    if config.fit_candidates:
        for candidate in candidates:
            candidate_spec = spec.with_extra_policy(candidate.schedule)
            result = fit(candidate.record, candidate_spec, config.fit)
            assignments[candidate.id] = result.best
    report = score_candidates(candidates, spec, config.replay, config.dims, assignments)
    return report, candidates
