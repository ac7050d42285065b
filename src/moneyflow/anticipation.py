"""Trajectory anticipation by robustness under internally generated shocks.

Candidate futures are alternative policy schedules simulated forward from a
common starting point. A candidate is defined by its id, its schedule, its
number of terms and its assignment (offsets and gain overrides, if any), and
its base, the unshocked run, is simulated once from those. Each candidate is
scored by replaying it under seeded shock sequences whose magnitudes
resample the per-event imbalances of an unshocked reference run (the
disturbances come from within the system, not from an outside noise law)
and measuring how far the shocked trajectories stray from its own base.
Candidate 0 of a set serves as the shared reference: its imbalance pool,
scaled by `shock_scale`, feeds the shock magnitudes and its trajectory fixes
the coordinate scales, so scores compare across candidates. Replay m's shock
sequence depends only on that pool, the spec, the replay config, m and the
horizon, so it is drawn once per replay index and horizon and every
candidate faces the same one (common random numbers). A candidate scored on
its own is its own reference. Each candidate is replayed under its
assignment, in this process. A candidate with no replays scores 1, and the
highest score wins, ties going to the lowest candidate id.

A replay that runs starts from its base's state at time 0: by the rules
below, one that can move a flow has a nonzero shock by the first observer
cut, so a later start would spare it one term at most.

Most replays need not run at all. A shock moves stock between the ends of a
channel and refreshes the sink's snapshot of its rate, and nothing in the
dynamics reads stock, so a shock can change a flow only by refreshing a
snapshot that is stale. A snapshot is stale only where assignment offsets
moved a true rate at time 0: every later rate change happens in an agent
update that settles the channel in the same event. Once a channel's first
settlement or nonzero shock has refreshed it, its snapshot is current
whenever anything reads it. A replay whose every nonzero shock comes
strictly after its channel's first refresh in the unshocked run therefore
leaves every flow, rate and issuance figure exactly where the unshocked run
has them, and diverges by 0.0 without running. A tie still runs, since a
scheduled shock precedes an agent's wake at the same time. Stock figures
move by the shock amounts themselves, so a set whose dims name one runs
every replay that has a nonzero shock.

A replay that runs stops once it has rejoined its base. An observer cut
refreshes every snapshot and they stay current from then on, so the
replay's later shocks move stock alone. Its flows, issuance and rates from
that cut on are then fixed by the clock, the notes, securities and rates,
the policy, securities and issuance cursors, each agent's carried
correction and wake count and time, and each channel's rate, multiplier,
snapshot and accrual. Where all of these equal the base checkpoint's at
the same boundary, every later phase point is the base's, at distance 0.0,
which cannot raise the max: the replay stops there with the same
divergence to the bit. With a stock dim it runs to the horizon.

The divergence metric here is max-over-horizon scaled Euclidean distance with
a harmonic score 1/(1+divergence); both are conventions, pluggable via the
`scales` argument and this module's small function surface.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf, isfinite, sqrt
from typing import Mapping, NamedTuple, Sequence

from . import rng
from .engine import _catch_up
from .network import NetworkState, build_network
from .recorder import BalanceSheet, Record, record_terms, run_record
from .retrieval import Assignment, apply_assignment
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
            raise ScenarioError(f"unknown trajectory dimension {dim!r}")
        try:
            point.append(float(aggregates[dim]))
        except OverflowError:
            raise ScenarioError(f"term {sheet.term_index}: trajectory dimension {dim!r} "
                                "exceeds the float range") from None
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


class Candidate(NamedTuple):
    """A simulated future: policy schedule, record and trajectory."""

    id: int
    schedule: tuple[PolicyAction, ...]
    record: Record
    trajectory: Trajectory
    imbalance_pool: tuple[float, ...]  # |observed deficit| per event of the unshocked run
    # Each channel whose snapshot is stale at time 0 (offsets), with the time
    # the unshocked run first refreshes it: inf if it never does.
    refresh_times: Mapping[str, float]


class SamplerConfig(NamedTuple):
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


class ReplayConfig(NamedTuple):
    """Shock replays per candidate. `jobs` is deprecated and has no effect:
    replays run in this process."""

    replays: int = 32
    shock_scale: float = 1.0
    seed: int = 0
    jobs: int = 1


class CandidateScore(NamedTuple):
    candidate_id: int
    mean_divergence: float
    score: float
    divergences: tuple[float, ...]


class RobustnessReport(NamedTuple):
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
    """Run one candidate future and collect its trajectory, imbalance pool
    and the refresh times of the snapshots its assignment leaves stale.

    A refresh time is that of the first settlement listing the channel or of
    the first nonzero shock on it, whichever comes first; inf if none does.
    A `checkpoints` list receives the run's state at the opening boundary of
    each term (see `run_record`), for shock replays to start from and rejoin.
    """
    candidate_spec = spec.with_extra_policy(schedule) if schedule else spec
    state = build_network(candidate_spec)
    if assignment is not None:
        apply_assignment(state, assignment)
    refresh = {cid: inf for cid, ch in state.channels.items() if ch.snap_rate_sink != ch.rate}
    record = run_record(state, n_terms, checkpoints)
    pool, pending = [], set(refresh)
    for ev in state.log:
        payload = ev.payload
        if ev.kind == "AgentUpdate":
            if not payload.get("exempt") and payload["deficit"] != 0:
                try:
                    pool.append(abs(float(payload["deficit"])))
                except OverflowError:
                    raise ScenarioError(f"agent {payload['agent']!r} observes a deficit past the "
                                        f"float range at t={ev.time!r}") from None
        elif pending and ev.kind == "Settlement":
            touched = pending.intersection(cid for cid, _ in payload["amounts"])
            for cid in touched:
                refresh[cid] = ev.time
            pending -= touched
        elif pending and ev.kind == "Shock" and payload["amount"] and payload["channel"] in pending:
            refresh[payload["channel"]] = ev.time
            pending.remove(payload["channel"])
    return Candidate(candidate_id, tuple(schedule), record, extract_trajectory(record, dims),
                     tuple(pool), refresh)


def _sample_schedules(spec: ScenarioSpec, n: int,
                      sampler: SamplerConfig) -> list[tuple[PolicyAction, ...]]:
    """Candidate 0's empty schedule, then the n-1 sampled ones (see SamplerConfig)."""
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
    schedules = [()]
    counter = 0
    for _ in range(1, n):
        schedule = []
        for channel_id in channels:
            k = rng.below(2 * GRID + 1, key, counter) - GRID
            counter += 1
            factor = 1 + Fraction(k, GRID) * bound
            schedule.append(PolicyAction(start, "set_multiplier", channel_id,
                                         multipliers[channel_id] * factor))
        schedules.append(tuple(schedule))
    return schedules


def sample_shock_sequence(pool: Sequence[float], spec: ScenarioSpec, config: ReplayConfig,
                          replay_index: int, n_terms: int) -> list[ShockSpec]:
    """Seeded disturbance sequence: times and channels uniform, magnitudes from the pool.

    A pool value times `shock_scale` past the float range is a ScenarioError.
    """
    if not pool or config.shock_scale == 0:
        pool = (0.0,)
    channel_ids = tuple(sorted(c.id for c in spec.channels))
    count = SHOCKS_PER_TERM * n_terms if channel_ids else 0  # no channel, nothing to shock
    key = rng.stream_key(config.seed, rng.string_key("replay-shocks"), replay_index)
    horizon = n_terms * spec.term_length
    shocks = []
    for k in range(count):
        time = rng.unit(key, 4 * k) * horizon
        channel = channel_ids[rng.below(len(channel_ids), key, 4 * k + 1)]
        value = pool[rng.below(len(pool), key, 4 * k + 2)]
        magnitude = value * config.shock_scale
        if not isfinite(magnitude):
            raise ScenarioError(f"--shock-scale {config.shock_scale!r} times the shock pool "
                                f"value {value!r} exceeds the float range")
        sign = 1 if rng.below(2, key, 4 * k + 3) == 0 else -1
        shocks.append(ShockSpec(time=time, channel=channel, amount=sign * round(magnitude)))
    return shocks


def _rejoin_key(state: NetworkState) -> tuple:
    """Everything the dynamics read of a state just after an observer cut.

    The module docstring argues why the rest (the shock cursor, stocks and
    tallies) may differ. Accruals compare as raw integers, so one amount in
    two representations is merely not a match.
    """
    cursors = state.cursors
    return (state.now, state.cumulative_issuance, state.securities_outstanding,
            dict(state.rates), cursors["policy"], cursors["securities"], cursors["issuance"],
            [(a.pending_correction, a.event_count, a.next_time) for a in state.agents.values()],
            [(c.rate, c.mult_num, c.mult_den, c.snap_rate_sink, c.accrued_num, c.accrued_den,
              c.accrued_until) for c in state.channels.values()])


def _run_replay(start, shocks, dims, base_trajectory, scales, keys) -> float:
    """Divergence of one replay, run from the base's state at time 0 (`start`).

    The shocked spec replaces the start's. `keys` holds the base's rejoin key
    at each boundary after time 0, or None where none may be used; the replay
    stops at the first boundary whose key its state matches (see the module
    docstring).
    """
    state = start.clone()
    state.spec = state.spec.with_extra_shocks(shocks)
    terms = record_terms(state)
    shocked = [_phase_point(next(terms), dims)]
    for key in keys:
        if key is not None:
            _catch_up(state)
            if _rejoin_key(state) == key:
                break
        shocked.append(_phase_point(next(terms), dims))
    return divergence(base_trajectory[:len(shocked)], shocked, scales)


def score_candidates(candidates: Sequence[Candidate], spec: ScenarioSpec,
                     config: ReplayConfig, dims: Sequence[str] = DEFAULT_DIMS,
                     assignments: Mapping[int, Assignment] | None = None) -> RobustnessReport:
    """Score a candidate set against one shared disturbance ensemble, by the
    rules of the module docstring.

    Of each candidate only the id, the schedule and the number of terms are
    read: its base is run afresh under `assignments.get(id)`, and the run it
    carries is not used. `config.jobs` is ignored.
    """
    defined = [(c.id, c.schedule, len(c.record.sheets)) for c in candidates]
    return _score(defined, spec, config, dims, assignments or {})[0]


def _score(defined: Sequence[tuple[int, Sequence[PolicyAction], int]], spec: ScenarioSpec,
           config: ReplayConfig, dims: Sequence[str], assignments: Mapping[int, Assignment]
           ) -> tuple[RobustnessReport, list[Candidate]]:
    """The report on the candidates `defined` as (id, schedule, n_terms), and
    the base run of each (see the module docstring for the rules).

    Checkpoints are taken only where a replay may run: with a stock dim, or
    under nonzero offsets, the only source of a stale snapshot.
    """
    if not defined:
        raise ValueError("empty candidate set")
    dims = tuple(dims)
    stock_dims = any(f.stock is not None and f.name in dims for f in spec.figures)
    bases, checkpoints = [], []
    for cid, schedule, n_terms in defined:
        assignment = assignments.get(cid)
        states = [] if stock_dims or (assignment and any(assignment.offsets.values())) else None
        bases.append(simulate_candidate(spec, cid, n_terms, dims, schedule, assignment, states))
        checkpoints.append(states)
    reference = bases[0]
    scales = default_scales(reference.trajectory)
    divergences = [[0.0] * config.replays for _ in bases]
    sequences: dict[int, list[list[ShockSpec]]] = {}  # nonzero shocks by horizon, replay
    for i, base in enumerate(bases):
        refresh = base.refresh_times
        if not (stock_dims or refresh):
            continue
        n_terms = len(base.record.sheets)
        if n_terms not in sequences:
            sequences[n_terms] = [
                [shock for shock in
                 sample_shock_sequence(reference.imbalance_pool, spec, config, m, n_terms)
                 if shock.amount]
                for m in range(config.replays)]
        # The base's rejoin key at each term boundary after time 0.
        keys = [None if stock_dims else _rejoin_key(cp) for cp in checkpoints[i][1:]]
        for m, shocks in enumerate(sequences[n_terms]):
            if not shocks or (not stock_dims
                              and all(s.time > refresh.get(s.channel, -inf) for s in shocks)):
                continue
            divergences[i][m] = _run_replay(checkpoints[i][0], shocks, dims, base.trajectory,
                                            scales, keys)
    scores = []
    for base, own in zip(bases, map(tuple, divergences)):
        mean = sum(own) / len(own) if own else 0.0
        scores.append(CandidateScore(base.id, mean, 1.0 / (1.0 + mean), own))
    best = max(scores, key=lambda s: (s.score, -s.candidate_id))
    return RobustnessReport(tuple(scores), best.candidate_id, dims), bases


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


class AnticipateConfig(NamedTuple):
    candidates: int = 5
    horizon_terms: int = 8
    dims: tuple[str, ...] = DEFAULT_DIMS
    sampler: SamplerConfig = SamplerConfig()
    replay: ReplayConfig = ReplayConfig()


def anticipate(spec: ScenarioSpec, config: AnticipateConfig = AnticipateConfig()
               ) -> tuple[RobustnessReport, list[Candidate]]:
    """Full pipeline: sample candidate schedules, score robustness, select.

    The candidates are run from `spec` itself, once each, with no
    assignment; the runs come back with the report.
    """
    schedules = _sample_schedules(spec, config.candidates, config.sampler)
    return _score([(cid, schedule, config.horizon_terms) for cid, schedule in enumerate(schedules)],
                  spec, config.replay, config.dims, {})
