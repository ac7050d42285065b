"""Trajectory anticipation by robustness under internally generated shocks.

Candidate futures are alternative policy schedules simulated forward from a
common starting point. Each candidate is scored by replaying it under seeded
shock sequences whose magnitudes resample the per-event imbalances of an
unshocked reference run (the disturbances come from within the system, not
from an outside noise law) and measuring how far the shocked trajectories
stray from the candidate's own unshocked one. When a whole candidate set is
scored, candidate 0 serves as the shared reference for both the shock pool
and the coordinate scales, so every candidate faces the same disturbances.
The candidate with the smallest mean divergence wins.

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
from .network import build_network
from .recorder import Record, run_record
from .retrieval import Assignment, FitConfig, apply_assignment, fit
from .scenario import PolicyAction, ScenarioSpec, ShockSpec, as_fraction

DEFAULT_DIMS = (
    "notes_outstanding",
    "discount_rate",
    "government_securities_outstanding",
    "securities_interest_rate",
)

Trajectory = list[tuple[float, ...]]


def extract_trajectory(record: Record, dims: Sequence[str] = DEFAULT_DIMS) -> Trajectory:
    """One point per term: the named aggregate figures in the given order."""
    trajectory: Trajectory = []
    for sheet in record.sheets:
        aggregates = sheet.aggregates()
        point = []
        for dim in dims:
            if dim not in aggregates:
                raise KeyError(f"unknown trajectory dimension {dim!r}")
            point.append(float(aggregates[dim]))
        trajectory.append(tuple(point))
    return trajectory


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
    """A simulated future: policy schedule, optional gain overrides, trajectory."""

    id: int
    schedule: tuple[PolicyAction, ...]
    gain_overrides: Mapping[str, Fraction]
    record: Record
    trajectory: Trajectory
    imbalance_pool: tuple[float, ...]  # |observed deficit| per event of the unshocked run


@dataclass(frozen=True)
class SamplerConfig:
    """Seeded multiplier perturbations defining the non-baseline candidates.

    Perturbed channels default to every channel whose multiplier is not 1
    (the policy instruments). Factors are drawn from a symmetric rational
    grid 1 + k*bound/grid, k in [-grid, grid], and take effect at the first
    term boundary so every candidate shares the term-0 phase point.
    """

    bound: float = 0.2
    grid: int = 8
    channels: tuple[str, ...] | None = None
    seed: int = 0


@dataclass(frozen=True)
class ReplayConfig:
    replays: int = 32
    shock_scale: float = 1.0
    shocks_per_term: float = 1.0
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
                       gain_overrides: Mapping[str, Fraction] | None = None,
                       extra_shocks: Sequence[ShockSpec] = (),
                       assignment: Assignment | None = None) -> Candidate:
    """Run one candidate future and collect its trajectory and imbalance pool."""
    gain_overrides = dict(gain_overrides or {})
    candidate_spec = spec.with_extra_policy(schedule) if schedule else spec
    if extra_shocks:
        candidate_spec = candidate_spec.with_extra_shocks(extra_shocks)
    state = build_network(candidate_spec)
    overrides = Assignment(
        offsets=assignment.offsets if assignment else {},
        gain_overrides={**(assignment.gain_overrides if assignment else {}), **gain_overrides},
    )
    apply_assignment(state, overrides)
    record = run_record(state, n_terms)
    pool = tuple(
        abs(float(ev.payload["deficit"]))
        for ev in state.log
        if ev.kind == "AgentUpdate" and not ev.payload.get("exempt") and ev.payload["deficit"] != 0
    )
    return Candidate(
        id=candidate_id,
        schedule=tuple(schedule),
        gain_overrides=gain_overrides,
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
    if channels is None:
        channels = tuple(c.id for c in spec.channels if c.multiplier != 1)
    key = rng.stream_key(sampler.seed, rng.string_key("candidate-multipliers"))
    bound = as_fraction(sampler.bound, "sampler bound")
    start = spec.term_length  # first boundary; keeps term 0 common to all candidates

    candidates = [simulate_candidate(spec, 0, n_terms, dims)]
    counter = 0
    for cid in range(1, n):
        schedule = []
        for channel_id in channels:
            k = rng.below(2 * sampler.grid + 1, key, counter) - sampler.grid
            counter += 1
            factor = 1 + Fraction(k, sampler.grid) * bound
            current = next(c.multiplier for c in spec.channels if c.id == channel_id)
            schedule.append(PolicyAction(start, "set_multiplier", channel_id, current * factor))
        candidates.append(simulate_candidate(spec, cid, n_terms, dims, schedule=schedule))
    return candidates


def sample_shock_sequence(pool: Sequence[float], spec: ScenarioSpec, config: ReplayConfig,
                          replay_index: int, n_terms: int) -> list[ShockSpec]:
    """Seeded disturbance sequence: times and channels uniform, magnitudes from the pool."""
    if not pool or config.shock_scale == 0:
        pool = (0.0,)
    channel_ids = tuple(sorted(c.id for c in spec.channels))
    count = max(0, round(config.shocks_per_term * n_terms))
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


def _run_replay(args) -> float:
    spec, candidate_id, n_terms, dims, schedule, gains, shocks, assignment, base_traj, scales = args
    shocked = simulate_candidate(
        spec, candidate_id, n_terms, dims,
        schedule=schedule, gain_overrides=gains,
        extra_shocks=shocks, assignment=assignment,
    )
    return divergence(base_traj, shocked.trajectory, scales)


def robustness_score(candidate: Candidate, spec: ScenarioSpec, config: ReplayConfig,
                     dims: Sequence[str] = DEFAULT_DIMS,
                     assignment: Assignment | None = None,
                     reference: Candidate | None = None) -> tuple[float, list[float]]:
    """Mean-divergence score over seeded shock replays of one candidate.

    Zero replays scores 1 by convention. Shock magnitudes resample the
    per-event imbalance pool of the reference's unshocked run (the candidate
    itself when scored standalone; candidate 0 when scored as part of a set so
    every candidate faces the same disturbances), scaled by `shock_scale`.
    Divergence is always measured against the candidate's own unshocked
    trajectory, in the reference's coordinate scales. When an assignment is
    given (fit-candidates mode) the retraced run is the comparison base.
    """
    n_terms = len(candidate.record.sheets)
    base = candidate
    if assignment is not None and (assignment.offsets or assignment.gain_overrides):
        base = simulate_candidate(
            spec, candidate.id, n_terms, dims,
            schedule=candidate.schedule, gain_overrides=candidate.gain_overrides,
            assignment=assignment,
        )
    if reference is None:
        reference = base
    scales = default_scales(reference.trajectory)
    tasks = [
        (spec, candidate.id, n_terms, tuple(dims), candidate.schedule,
         dict(candidate.gain_overrides),
         sample_shock_sequence(reference.imbalance_pool, spec, config, m, n_terms),
         assignment, base.trajectory, scales)
        for m in range(config.replays)
    ]
    divergences = _map_tasks(_run_replay, tasks, config.jobs)
    if not divergences:
        return 1.0, []
    mean = sum(divergences) / len(divergences)
    return 1.0 / (1.0 + mean), divergences


def _map_tasks(fn, tasks, jobs: int) -> list:
    """Order-preserving map, optionally fanned out over worker processes."""
    if jobs and jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, tasks))
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

    Candidate 0 is the reference: its imbalance pool feeds the shock
    magnitudes and its trajectory fixes the coordinate scales, so scores are
    comparable across candidates.
    """
    if not candidates:
        raise ValueError("empty candidate set")
    reference = candidates[0]
    ref_assignment = (assignments or {}).get(reference.id)
    if ref_assignment is not None and (ref_assignment.offsets or ref_assignment.gain_overrides):
        reference = simulate_candidate(
            spec, reference.id, len(reference.record.sheets), dims,
            schedule=reference.schedule, gain_overrides=reference.gain_overrides,
            assignment=ref_assignment,
        )
    scores = []
    for candidate in candidates:
        assignment = (assignments or {}).get(candidate.id)
        score, divergences = robustness_score(candidate, spec, config, dims, assignment,
                                              reference=reference)
        mean = sum(divergences) / len(divergences) if divergences else 0.0
        scores.append(CandidateScore(candidate.id, mean, score, tuple(divergences)))
    report = RobustnessReport(tuple(scores), selected=-1, dims=tuple(dims))
    return replace(report, selected=select_most_robust(report))


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
