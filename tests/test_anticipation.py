"""Candidate futures, divergence scoring, and robust-trajectory selection."""

import concurrent.futures
import functools
import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moneyflow import (
    DEFAULT_DIMS,
    AnticipateConfig,
    Assignment,
    ReplayConfig,
    SamplerConfig,
    anticipate,
    build_network,
    divergence,
    extract_trajectory,
    robustness_score,
    run_record,
    score_candidates,
    simulate_candidate,
    three_agent_cycle,
    two_agent_kernel,
)
from moneyflow import anticipation, engine
from moneyflow.anticipation import _sample_schedules, default_scales
from moneyflow.network import NetworkState
from moneyflow.recorder import BalanceSheet, Record
from moneyflow.retrieval import apply_assignment
from moneyflow.scenario import FigureSpec, PolicyAction, ScenarioError, ShockSpec, national_5

from conftest import tiny_spec


def record_with_aggregate(name, values):
    sheets = tuple(BalanceSheet(i, {}, 0, 0, {}, {name: v}) for i, v in enumerate(values))
    return Record(sheets)


class TestExtractTrajectory:
    def test_empty_record_empty_trajectory(self):
        assert extract_trajectory(Record(()), ("notes_outstanding",)) == []

    def test_constant_coordinate(self):
        record = record_with_aggregate("x", [500, 500, 500])
        assert extract_trajectory(record, ("x",)) == [(500.0,), (500.0,), (500.0,)]

    def test_projection_matches_sheets(self, national5_spec):
        from moneyflow import build_network, run_record

        record = run_record(build_network(national5_spec), 2)
        trajectory = extract_trajectory(record)
        for sheet, point in zip(record.sheets, trajectory):
            aggregates = sheet.aggregates()
            assert point == (
                float(aggregates["notes_outstanding"]),
                float(aggregates["discount_rate"]),
                float(aggregates["government_securities_outstanding"]),
                float(aggregates["securities_interest_rate"]),
            )

    def test_unknown_dimension_rejected(self):
        record = record_with_aggregate("x", [1])
        with pytest.raises(ScenarioError, match="unknown trajectory dimension 'nope'"):
            extract_trajectory(record, ("nope",))


class TestDivergence:
    def test_identical_zero(self):
        t = [(1.0, 2.0), (3.0, 4.0)]
        assert divergence(t, t) == 0.0

    def test_single_coordinate_difference(self):
        assert divergence([(0.0,)], [(7.0,)], scales=[1.0]) == 7.0

    def test_symmetric(self):
        a = [(1.0, 5.0), (2.0, 9.0)]
        b = [(4.0, 5.5), (0.0, 12.0)]
        assert divergence(a, b) == divergence(b, a)

    def test_max_over_terms(self):
        a = [(0.0,), (0.0,), (0.0,)]
        b = [(1.0,), (5.0,), (2.0,)]
        assert divergence(a, b, scales=[1.0]) == 5.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            divergence([(1.0,)], [(1.0,), (2.0,)])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            divergence([(1.0,)], [(1.0, 2.0)])


def sampled_candidates(spec, n, sampler=SamplerConfig(), *, n_terms, dims=DEFAULT_DIMS):
    """The candidates `anticipate` runs: candidate 0 is the unmodified continuation,
    1..n-1 carry the sampled schedules."""
    return [simulate_candidate(spec, cid, n_terms, dims, schedule)
            for cid, schedule in enumerate(_sample_schedules(spec, n, sampler))]


class TestGenerateCandidates:
    def test_single_candidate_is_baseline(self, national5_spec):
        cands = sampled_candidates(national5_spec, 1, n_terms=2)
        assert len(cands) == 1
        assert cands[0].schedule == ()

    def test_zero_bound_collapses_to_baseline(self, national5_spec):
        cands = sampled_candidates(national5_spec, 3, SamplerConfig(bound=0.0, seed=5), n_terms=2)
        # Same sheets and trajectories; fingerprints legitimately differ since
        # the sampled (no-op) schedules are part of each candidate's scenario.
        assert all(c.record.sheets == cands[0].record.sheets for c in cands)
        assert all(c.trajectory == cands[0].trajectory for c in cands)

    def test_fixed_seed_reproducible(self, national5_spec):
        a = sampled_candidates(national5_spec, 4, SamplerConfig(seed=9), n_terms=2)
        b = sampled_candidates(national5_spec, 4, SamplerConfig(seed=9), n_terms=2)
        assert [c.record for c in a] == [c.record for c in b]

    def test_common_initial_phase_point(self, national5_spec):
        dims = ("notes_outstanding", "consumption_flow", "bond_flow")
        cands = sampled_candidates(national5_spec, 5, SamplerConfig(seed=2), n_terms=3, dims=dims)
        first_points = {c.trajectory[0] for c in cands}
        assert len(first_points) == 1

    def test_at_least_one_candidate_required(self, national5_spec):
        with pytest.raises(ValueError):
            _sample_schedules(national5_spec, 0, SamplerConfig())

    def test_unknown_sampler_channel_rejected(self, national5_spec):
        with pytest.raises(ScenarioError, match="unknown channel 'nope'"):
            _sample_schedules(national5_spec, 2, SamplerConfig(channels=("nope",)))

    @pytest.mark.parametrize("bound", [3.0, -3.0, 1.0 + 2 ** -52, float("nan")])
    def test_bound_outside_unit_interval_rejected_before_any_run(self, national5_spec, bound,
                                                                 monkeypatch):
        # Above 1 some grid factors 1 + k * bound / GRID are negative; below 0
        # the grid turns over and the factors reach 1 + |bound|.
        def must_not_run(*args, **kwargs):
            raise AssertionError("a candidate was simulated")

        monkeypatch.setattr(anticipation, "simulate_candidate", must_not_run)
        with pytest.raises(ScenarioError, match=r"sampler bound must lie in \[0, 1\]"):
            anticipate(national5_spec, AnticipateConfig(candidates=5, horizon_terms=2,
                                                        sampler=SamplerConfig(bound=bound)))


class TestRobustnessScore:
    def test_zero_replays_scores_one(self, cycle_spec):
        candidate = simulate_candidate(cycle_spec, 0, 2, ("ab_flow",))
        score, divs = robustness_score(candidate, cycle_spec, ReplayConfig(replays=0))
        assert score == 1.0
        assert divs == []

    def test_zero_shock_scale_scores_one(self, cycle_spec):
        dims = ("ab_flow", "bc_flow", "ca_flow")
        candidate = simulate_candidate(
            cycle_spec, 0, 2, dims, assignment=Assignment(offsets={"A": 20}),
        )
        score, divs = robustness_score(
            candidate, cycle_spec, ReplayConfig(replays=4, shock_scale=0.0, seed=3), dims,
            assignment=Assignment(offsets={"A": 20}),
        )
        assert divs == [0.0] * 4
        assert score == 1.0

    def test_shock_past_the_float_range_is_a_scenario_error(self):
        config = ReplayConfig(replays=1, shock_scale=1e308)
        with pytest.raises(ScenarioError, match=r"^--shock-scale 1e\+308 times the shock pool "
                                                r"value 60\.0 exceeds the float range$"):
            anticipation.sample_shock_sequence((60.0,), three_agent_cycle(), config, 0, 2)

    def test_zero_gain_stock_shocks_leave_flow_dims_unchanged(self):
        # Frozen corrections: redistributive shocks move stocks only, so every
        # flow-based coordinate stays put and divergence is exactly zero even
        # though the shock amounts themselves are nonzero.
        spec = tiny_spec(gain=Fraction(0), seed=12)
        dims = ("ab_flow",)
        candidate = simulate_candidate(spec, 0, 3, dims)
        assert candidate.imbalance_pool  # one-sided flow: imbalances exist
        config = ReplayConfig(replays=6, shock_scale=1.0, seed=4)
        score, divs = robustness_score(candidate, spec, config, dims)
        assert divs == [0.0] * 6
        assert score == 1.0

    def test_the_assignment_defines_the_base(self, cycle_spec):
        # The run a candidate carries is not read: one simulated with offsets
        # and passed another assignment scores as a fresh run under that one.
        dims = ("ab_flow", "bc_flow", "ca_flow")
        assignment = Assignment(offsets={"A": 30, "C": -15})
        candidate = simulate_candidate(cycle_spec, 0, 6, dims, assignment=assignment)
        config = ReplayConfig(replays=6, seed=4)
        for passed in (None, Assignment(gain_overrides={"A": Fraction(2)}),
                       Assignment(offsets={"A": 0}), assignment):
            fresh = simulate_candidate(cycle_spec, 0, 6, dims, assignment=passed)
            assignments = {0: passed} if passed is not None else None
            report = score_candidates([candidate], cycle_spec, config, dims, assignments)
            assert report == score_candidates([fresh], cycle_spec, config, dims, assignments)
            # Only the offsets leave a snapshot stale for a shock to reach.
            assert any(report.scores[0].divergences) == (passed is assignment)

    def test_score_in_unit_interval(self, cycle_spec):
        dims = ("ab_flow", "bc_flow", "ca_flow")
        assignment = Assignment(offsets={"A": 30, "C": -15})
        candidate = simulate_candidate(cycle_spec, 0, 4, dims, assignment=assignment)
        score, divs = robustness_score(
            candidate, cycle_spec, ReplayConfig(replays=8, seed=5), dims, assignment=assignment,
        )
        assert 0.0 < score <= 1.0
        assert len(divs) == 8


CYCLE_DIMS = ("ab_flow", "bc_flow", "ca_flow")


def cycle_set(spec):
    """Three candidates; offsets on 0 and 2, and a gain override on 2."""
    candidates = sampled_candidates(spec, 3, SamplerConfig(seed=6, channels=("ab",)),
                                     n_terms=3, dims=CYCLE_DIMS)
    offsets = {"A": 30, "C": -15}
    assignments = {0: Assignment(offsets=offsets),
                   2: Assignment(offsets=offsets, gain_overrides=dict.fromkeys("ABC", Fraction(3)))}
    return candidates, assignments


def score_set(spec, jobs: int):
    candidates, assignments = cycle_set(spec)
    return score_candidates(candidates, spec, ReplayConfig(replays=4, seed=6, jobs=jobs),
                            CYCLE_DIMS, assignments)


class TestScoreCandidates:
    def test_every_candidate_faces_the_reference_shocks(self, cycle_spec, monkeypatch):
        calls = []
        sample = anticipation.sample_shock_sequence

        def recording(pool, spec, config, m, n_terms):
            calls.append((pool, m))
            return sample(pool, spec, config, m, n_terms)

        monkeypatch.setattr(anticipation, "sample_shock_sequence", recording)
        score_set(cycle_spec, jobs=1)
        candidates, assignments = cycle_set(cycle_spec)
        bases = [simulate_candidate(cycle_spec, c.id, 3, CYCLE_DIMS, schedule=c.schedule,
                                    assignment=assignments.get(c.id)) for c in candidates]
        assert bases[2].imbalance_pool != bases[0].imbalance_pool
        # One draw per replay index, shared by all three candidates.
        assert calls == [(bases[0].imbalance_pool, m) for m in range(4)]

    def test_a_run_under_other_dims_scores_like_a_fresh_one(self):
        # The reference, candidate 0, has no assignment: the scales it sets
        # count the dims scored, not the one it was simulated under.
        spec, candidates, assignments, dims = stale_window_set("cycle", 1.0, 3)
        assignments = {1: assignments[0], 2: assignments[2]}
        config = ReplayConfig(replays=8, seed=6)
        report = score_candidates(candidates, spec, config, dims, assignments)
        other = [simulate_candidate(spec, c.id, 3, ("ab_flow",), c.schedule) for c in candidates]
        assert score_candidates(other, spec, config, dims, assignments) == report
        assert any(d != 0.0 for s in report.scores for d in s.divergences)


def from_scratch_divergences(candidates, spec, dims, assignments, shock_lists):
    """Each candidate's divergence under each shock list, every replay run
    over the whole horizon from a fresh build with all of its shocks, zero
    ones included: the scoring before replays were skipped, started from
    checkpoints and stopped where they rejoined."""
    bases = [simulate_candidate(spec, c.id, len(c.record.sheets), dims, schedule=c.schedule,
                                assignment=assignments.get(c.id)) for c in candidates]
    scales = default_scales(bases[0].trajectory)
    rows = []
    for base in bases:
        candidate_spec = spec.with_extra_policy(base.schedule) if base.schedule else spec
        row = []
        for shocks in shock_lists:
            state = build_network(candidate_spec.with_extra_shocks(shocks))
            if assignments.get(base.id) is not None:
                apply_assignment(state, assignments[base.id])
            shocked = extract_trajectory(run_record(state, len(base.record.sheets)), dims)
            row.append(divergence(base.trajectory, shocked, scales))
        rows.append(row)
    return rows


def checkpoint_set(term_length, n_terms):
    """Three cycle candidates at the given term length. The scenario has its
    own shock on the first boundary and the sampled multipliers take effect
    there too; candidate 0 carries offsets and candidate 2 a gain override."""
    spec = replace(three_agent_cycle(), term_length=term_length)
    spec = spec.with_extra_shocks([ShockSpec(term_length, "bc", 30)])
    candidates = sampled_candidates(spec, 3, SamplerConfig(seed=6, channels=("ab",)),
                                     n_terms=n_terms, dims=CYCLE_DIMS)
    offsets = {"A": 30, "C": -15}
    assignments = {0: Assignment(offsets=offsets),
                   2: Assignment(offsets=offsets, gain_overrides=dict.fromkeys("ABC", Fraction(3)))}
    return spec, candidates, assignments


def checkpointed_divergences(monkeypatch, spec, candidates, assignments, shock_lists,
                             jobs=1, dims=CYCLE_DIMS):
    """`score_candidates` with its sampled shocks replaced by `shock_lists`."""
    monkeypatch.setattr(anticipation, "sample_shock_sequence",
                        lambda pool, spec, config, m, n_terms: list(shock_lists[m]))
    config = ReplayConfig(replays=len(shock_lists), jobs=jobs)
    report = score_candidates(candidates, spec, config, dims, assignments)
    return [list(s.divergences) for s in report.scores]


def bits(rows):
    return [[d.hex() for d in row] for row in rows]


@st.composite
def boundary_shock_lists(draw, term_length, n_terms):
    """Shock lists timed on term boundaries and between them; many amounts are 0."""
    times = [k * term_length for k in range(n_terms)] + [(k + 0.5) * term_length
                                                          for k in range(n_terms)]
    shock = st.builds(ShockSpec, st.sampled_from(times), st.sampled_from(["ab", "bc", "ca"]),
                      st.sampled_from([0, 0, -40, 25, 60]))
    return draw(st.lists(st.lists(shock, max_size=4), min_size=1, max_size=3))


class TestCheckpointOracle:
    """Replays from the time-0 checkpoint give the from-scratch divergences, bit for bit."""

    @pytest.mark.parametrize("jobs", [1, 2])  # `jobs` is ignored: both give the oracle
    @pytest.mark.parametrize("term_length", [1.0, 1 / 3, 0.75])
    def test_boundary_and_zero_shocks(self, monkeypatch, term_length, jobs):
        n_terms, length = 4, term_length
        spec, candidates, assignments = checkpoint_set(term_length, n_terms)
        shock_lists = [
            [],  # no shock: the base itself
            [ShockSpec(0.5 * length, "ab", 0)],  # only a zero shock
            [ShockSpec(length, "ab", 40)],  # on the first boundary, with the policies
            [ShockSpec(2 * length, "ca", -25), ShockSpec(0.5 * length, "bc", 0),
             ShockSpec(length, "ab", 0)],  # zero shocks before a nonzero one on a boundary
            [ShockSpec(0.0, "ab", 60)],  # at time 0
            [ShockSpec(2.5 * length, "bc", 25), ShockSpec(3 * length, "ab", -40)],
            [ShockSpec(3 * length, "ca", 60)],  # on the last boundary
        ]
        expected = from_scratch_divergences(candidates, spec, CYCLE_DIMS, assignments,
                                            shock_lists)
        assert any(d != 0.0 for row in expected for d in row)
        got = checkpointed_divergences(monkeypatch, spec, candidates, assignments,
                                       shock_lists, jobs)
        assert bits(got) == bits(expected)

    @given(data=st.data(), term_length=st.sampled_from([1.0, 1 / 3, 0.75]),
           n_terms=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_random_boundary_shocks(self, data, term_length, n_terms):
        spec, candidates, assignments = checkpoint_set(term_length, n_terms)
        shock_lists = data.draw(boundary_shock_lists(term_length, n_terms))
        expected = from_scratch_divergences(candidates, spec, CYCLE_DIMS, assignments,
                                            shock_lists)
        with pytest.MonkeyPatch.context() as monkeypatch:
            got = checkpointed_divergences(monkeypatch, spec, candidates, assignments,
                                           shock_lists)
        assert bits(got) == bits(expected)

    def test_sampled_acceptance_set(self):
        # The sampled shocks of a small acceptance-6 style set, unpatched.
        spec = three_agent_cycle().with_seed(301)
        candidates, assignments = cycle_set(spec)
        config = ReplayConfig(replays=6, seed=301)
        report = score_candidates(candidates, spec, config, CYCLE_DIMS, assignments)
        pool = simulate_candidate(spec, 0, 3, CYCLE_DIMS, assignment=assignments[0]).imbalance_pool
        shock_lists = [anticipation.sample_shock_sequence(pool, spec, config, m, 3)
                       for m in range(6)]
        expected = from_scratch_divergences(candidates, spec, CYCLE_DIMS, assignments,
                                            shock_lists)
        assert bits([list(s.divergences) for s in report.scores]) == bits(expected)
        assert any(d != 0.0 for row in expected for d in row)

    def test_only_replays_that_can_reach_a_stale_snapshot_run(self, cycle_spec, monkeypatch):
        candidates, assignments = cycle_set(cycle_spec)
        refresh = base_refresh_times(cycle_spec, candidates, assignments, 3)
        # The offsets move ab (A's) and ca (C's) at time 0; candidate 1 has none.
        assert refresh[1] == {} and set(refresh[0]) == set(refresh[2]) == {"ab", "ca"}
        assert refresh[0] == refresh[2]  # same wake times, so the same first settlements
        ab, ca = refresh[0]["ab"], refresh[0]["ca"]
        ran = []
        monkeypatch.setattr(anticipation, "_run_replay", lambda *task: ran.append(task) or 1.0)
        runs = [ShockSpec(ca, "ca", 5), ShockSpec(2.0, "bc", 5)]  # a tie with ca's refresh
        shock_lists = [
            [],  # the base itself
            [ShockSpec(0.5 * ca, "ab", 0)],  # only a zero shock, in the stale window
            [ShockSpec(0.5 * ca, "bc", 40)],  # bc is never stale
            [ShockSpec(ca + 0.125, "ca", 40), ShockSpec(ab + 0.5, "ab", -25)],  # both refreshed
            runs,
            [ShockSpec(ab, "ab", -25)],  # a tie with ab's refresh
        ]
        got = checkpointed_divergences(monkeypatch, cycle_spec, candidates, assignments,
                                       shock_lists)
        assert got == [[0.0, 0.0, 0.0, 0.0, 1.0, 1.0], [0.0] * 6,
                       [0.0, 0.0, 0.0, 0.0, 1.0, 1.0]]
        # Each replay starts at time 0, with every one of its nonzero shocks.
        assert [task[1] for task in ran] == [runs, shock_lists[5]] * 2
        assert all(task[0].now == 0 for task in ran)


def base_refresh_times(spec, candidates, assignments, n_terms, dims=CYCLE_DIMS):
    """Each candidate's `refresh_times` as `score_candidates` sees them."""
    return [simulate_candidate(spec, c.id, n_terms, dims, c.schedule,
                               assignments.get(c.id)).refresh_times for c in candidates]


# Scenario, channel of the mid-term policy, offsets and dims. In the kernel
# the pair's one settlement refreshes both directions, so a shock tied with
# it refreshes the snapshot the waking agent is about to read. The cycle's
# own shocks early in term 0 refresh ab (a nonzero one) and leave ca stale
# (a zero one).
STALE_WORLDS = {
    "cycle": (three_agent_cycle(), "ca", {"A": 30, "C": -15}, CYCLE_DIMS),
    "kernel": (two_agent_kernel(40, 40), "ba", {"A": 6, "B": -4}, ("ab_flow", "ba_flow")),
}


def stale_window_set(world, term_length, n_terms, seed=7):
    """Three candidates with a mid-term policy on a channel that starts
    stale. Candidate 0 carries offsets, 1 a gain override only and 2 both."""
    base, policy_channel, offsets, dims = STALE_WORLDS[world]
    spec = replace(base, term_length=term_length, seed=seed).with_extra_policy([
        PolicyAction(0.25 * term_length, "set_multiplier", policy_channel, Fraction(5, 4))])
    if world == "cycle":
        spec = spec.with_extra_shocks([ShockSpec(0.0625 * term_length, "ca", 0),
                                       ShockSpec(0.125 * term_length, "ab", 20)])
    candidates = sampled_candidates(spec, 3, SamplerConfig(seed=6, channels=("ab",)),
                                     n_terms=n_terms, dims=dims)
    gains = {agent: Fraction(3) for agent in offsets}
    assignments = {0: Assignment(offsets=offsets), 1: Assignment(gain_overrides=gains),
                   2: Assignment(offsets=offsets, gain_overrides=gains)}
    return spec, candidates, assignments, dims


@functools.lru_cache(maxsize=None)
def stale_window_times(world, term_length, n_terms, seed=7):
    """Shock times around every base's first refreshes: just before, at and
    just after each, plus the term boundaries and mid-terms."""
    spec, candidates, assignments, dims = stale_window_set(world, term_length, n_terms, seed)
    times = {k * term_length for k in range(n_terms)}
    times |= {(k + 0.5) * term_length for k in range(n_terms)}
    for refresh in base_refresh_times(spec, candidates, assignments, n_terms, dims):
        for t in refresh.values():
            times |= {math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf), t + 0.0625}
    horizon = n_terms * term_length
    return sorted(t for t in times if 0 <= t < horizon)


def recording_replays(monkeypatch):
    """Record the arguments of each replay that runs, with the number of terms it records."""
    ran = []
    run_replay, record_terms = anticipation._run_replay, anticipation.record_terms

    def counted(sheets):
        for sheet in sheets:
            ran[-1][1] += 1
            yield sheet

    monkeypatch.setattr(anticipation, "record_terms", lambda *args: counted(record_terms(*args)))
    monkeypatch.setattr(anticipation, "_run_replay",
                        lambda *task: ran.append([task, 0]) or run_replay(*task))
    return ran


def stopped_early(ran):
    """The recorded replays that stopped before the horizon, and the others."""
    early = [task for task, terms in ran if terms < len(task[3])]
    return early, [task for task, terms in ran if terms == len(task[3])]


def stale_window_divergences(monkeypatch, world, term_length, n_terms, shock_lists, seed=7):
    """The from-scratch and the scored divergences, and the replays that ran
    with the terms each recorded."""
    spec, candidates, assignments, dims = stale_window_set(world, term_length, n_terms, seed)
    expected = from_scratch_divergences(candidates, spec, dims, assignments, shock_lists)
    ran = recording_replays(monkeypatch)
    got = checkpointed_divergences(monkeypatch, spec, candidates, assignments, shock_lists,
                                   dims=dims)
    return expected, got, ran


class TestStaleWindowOracle:
    """Skipping the replays that cannot reach a stale snapshot, and stopping
    those that run where they rejoin their base, gives the from-scratch
    divergences, bit for bit."""

    @given(data=st.data(), world=st.sampled_from(sorted(STALE_WORLDS)),
           term_length=st.sampled_from([1.0, 1 / 3, 0.75]), n_terms=st.integers(1, 4),
           seed=st.sampled_from([3, 7, 11, 19]))
    @settings(max_examples=60, deadline=None)
    def test_shocks_around_the_first_refresh(self, data, world, term_length, n_terms, seed):
        channels = sorted(c.id for c in STALE_WORLDS[world][0].channels)
        horizon = n_terms * term_length
        time = st.one_of(st.sampled_from(stale_window_times(world, term_length, n_terms, seed)),
                         st.floats(0, horizon, exclude_max=True))
        shock = st.builds(ShockSpec, time, st.sampled_from(channels),
                          st.sampled_from([0, -4, 5, 40]))
        shock_lists = data.draw(st.lists(st.lists(shock, max_size=3), min_size=1, max_size=3))
        with pytest.MonkeyPatch.context() as monkeypatch:
            expected, got, _ = stale_window_divergences(monkeypatch, world, term_length,
                                                        n_terms, shock_lists, seed)
        assert bits(got) == bits(expected)

    @pytest.mark.parametrize("seed", [7, 11])
    @pytest.mark.parametrize("world", sorted(STALE_WORLDS))
    @pytest.mark.parametrize("term_length", [1.0, 0.75])
    def test_both_sides_of_each_refresh(self, monkeypatch, world, term_length, seed):
        # One lone shock per time and stale channel: the skipped ones diverge
        # by 0.0 in the from-scratch runs too, and some that run do not.
        n_terms = 2
        stale = STALE_WORLDS[world][2]  # the offset agents' channels
        channels = [c.id for c in STALE_WORLDS[world][0].channels if c.source in stale]
        shock_lists = [[ShockSpec(t, cid, amount)]
                       for t in stale_window_times(world, term_length, n_terms, seed)
                       for cid in channels for amount in (-4, 40)]
        expected, got, ran = stale_window_divergences(monkeypatch, world, term_length,
                                                      n_terms, shock_lists, seed)
        assert bits(got) == bits(expected)
        assert 0 < len(ran) < 2 * len(shock_lists)  # bases 0 and 2 skip some, 1 runs none
        assert any(d != 0.0 for row in expected for d in row)

    @pytest.mark.parametrize("world", sorted(STALE_WORLDS))
    @pytest.mark.parametrize("term_length", [1.0, 1 / 3, 0.75])
    def test_replays_stop_where_they_rejoin(self, monkeypatch, world, term_length):
        # Lone shocks and pairs across terms in the stale windows: some
        # replays absorb theirs within a term and stop at the next cut,
        # others still differ from the base there and run on.
        n_terms = 4
        stale = STALE_WORLDS[world][2]
        channels = [c.id for c in STALE_WORLDS[world][0].channels if c.source in stale]
        times = stale_window_times(world, term_length, n_terms)
        shock_lists = [[ShockSpec(t, cid, amount)]
                       for t in times for cid in channels for amount in (-4, 40)]
        shock_lists += [[ShockSpec(t, channels[0], 40), ShockSpec(t + term_length, cid, -4)]
                        for t in times for cid in channels]
        expected, got, ran = stale_window_divergences(monkeypatch, world, term_length,
                                                      n_terms, shock_lists)
        assert bits(got) == bits(expected)
        early, full = stopped_early(ran)
        assert early, "no replay rejoined its base"
        assert any(len(task[3]) > 1 for task in full), "every replay rejoined"

    def test_stock_dims_run_every_replay_with_a_nonzero_shock(self, monkeypatch):
        spec, candidates, assignments, dims = stale_window_set("cycle", 1.0, 3)
        spec = replace(spec, figures=spec.figures + (FigureSpec("a_stock", stock="A"),))
        dims = dims + ("a_stock",)
        # After every refresh: skipped on flow dims alone, but they move A's stock.
        shock_lists = [[], [ShockSpec(1.5, "ab", 40)], [ShockSpec(2.25, "ca", -25),
                                                         ShockSpec(1.75, "bc", 0)]]
        # Two shocks on ab a term apart, after its refresh: the flows rejoin
        # the base at the first cut, while A's stock moves again later.
        shock_lists.append([ShockSpec(0.5, "ab", 40), ShockSpec(1.5, "ab", 40)])
        expected = from_scratch_divergences(candidates, spec, dims, assignments, shock_lists)
        ran = recording_replays(monkeypatch)
        monkeypatch.setattr(anticipation, "sample_shock_sequence",
                            lambda pool, spec, config, m, n_terms: list(shock_lists[m]))
        report = score_candidates(candidates, spec, ReplayConfig(replays=4), dims, assignments)
        assert bits([list(s.divergences) for s in report.scores]) == bits(expected)
        assert len(ran) == 3 * 3  # every candidate, gain override only included
        assert stopped_early(ran)[0] == []  # and each to the horizon
        assert all(row[0] == 0.0 and 0.0 not in row[1:] for row in expected)


class TestRefreshTimes:
    """`Candidate.refresh_times` is the time of each stale channel's first
    event that `refreshes` it, inf if none does."""

    @pytest.mark.parametrize("seed", [3, 7, 11, 19])
    @pytest.mark.parametrize("world", sorted(STALE_WORLDS))
    @pytest.mark.parametrize("term_length", [1.0, 1 / 3, 0.75])
    def test_first_refreshing_event(self, world, term_length, seed):
        n_terms = 3
        spec, candidates, assignments, dims = stale_window_set(world, term_length, n_terms, seed)
        for c, refresh in zip(candidates, base_refresh_times(spec, candidates, assignments,
                                                             n_terms, dims)):
            state = build_network(spec.with_extra_policy(c.schedule) if c.schedule else spec)
            apply_assignment(state, assignments[c.id])
            stale = [cid for cid, ch in state.channels.items() if ch.snap_rate_sink != ch.rate]
            run_record(state, n_terms)
            assert refresh == {cid: next((ev.time for ev in state.log if refreshes(ev, cid)),
                                         math.inf) for cid in stale}
            assert bool(refresh) == any(assignments[c.id].offsets.values())


def refreshes(event, channel):
    """Whether a logged event refreshes the channel's snapshot."""
    if event.kind == "Settlement":
        return any(cid == channel for cid, _ in event.payload["amounts"])
    return event.kind == "Shock" and bool(event.payload["amount"]) and \
        event.payload["channel"] == channel


def tax_policy_spec():
    return national_5().with_extra_policy([
        PolicyAction(1.5, "set_multiplier", "tax_hh", Fraction(3, 10)),
        PolicyAction(1.5, "set_multiplier", "tax_corp", Fraction(3, 10)),
    ])


class TestRefreshedSnapshotsStayCurrent:
    """The invariant behind the skip rule: once a channel's snapshot has been
    refreshed, every later shock on it finds the snapshot current."""

    @given(case=st.sampled_from([
               (three_agent_cycle, {"A": 30, "C": -15}, {}),
               (three_agent_cycle, {"B": 45}, dict.fromkeys("ABC", Fraction(3))),
               (tax_policy_spec, {"HH": 60, "GOV": -50}, {}),
               (tax_policy_spec, {}, {}),
           ]),
           term_length=st.sampled_from([1.0, 0.75]), seed=st.integers(0, 2 ** 16),
           data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_at_every_shock(self, case, term_length, seed, data):
        make_spec, offsets, gains = case
        spec = replace(make_spec(), term_length=term_length, seed=seed)
        n_terms = 3
        shock = st.builds(ShockSpec, st.floats(0, n_terms * term_length, exclude_max=True),
                          st.sampled_from(sorted(c.id for c in spec.channels)),
                          st.sampled_from([0, -40, 25]))
        shocks = data.draw(st.lists(shock, min_size=1, max_size=6))
        state = build_network(spec.with_extra_shocks(shocks))
        apply_assignment(state, Assignment(offsets=offsets, gain_overrides=gains))
        stale = {cid for cid, ch in state.channels.items() if ch.snap_rate_sink != ch.rate}
        assert bool(stale) == any(offsets.values())
        checked = []
        inject = engine.inject_shock

        def checking(state, agent_id, amount, time, *, channel_id):
            if channel_id not in stale or any(refreshes(ev, channel_id) for ev in state.log):
                ch = state.channels[channel_id]
                assert ch.snap_rate_sink == ch.rate, (channel_id, time)
                checked.append(channel_id)
            return inject(state, agent_id, amount, time, channel_id=channel_id)

        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(engine, "inject_shock", checking)
            run_record(state, n_terms)
        # The first observer cut refreshes every channel.
        assert len(checked) >= sum(s.time >= term_length for s in shocks)


class TestRejoinKey:
    """The key holds every field the dynamics read after a cut, and nothing
    that only stocks, tallies or the shock cursor hold."""

    def checkpoint(self):
        spec = tax_policy_spec()
        state = build_network(spec)
        apply_assignment(state, Assignment(offsets={"HH": 60}))
        checkpoints = []
        run_record(state, 2, checkpoints)
        return checkpoints[1]

    @pytest.mark.parametrize("change", [
        lambda s: setattr(s, "now", s.now + 0.5),
        lambda s: setattr(s, "cumulative_issuance", s.cumulative_issuance + 1),
        lambda s: setattr(s, "securities_outstanding", s.securities_outstanding + 1),
        lambda s: s.rates.update(discount_rate=Fraction(1, 3)),
        lambda s: s.cursors.update(policy=s.cursors["policy"] + 1),
        lambda s: s.cursors.update(securities=s.cursors["securities"] + 1),
        lambda s: s.cursors.update(issuance=s.cursors["issuance"] + 1),
        lambda s: setattr(s.agents["HH"], "pending_correction", Fraction(1, 2)),
        lambda s: setattr(s.agents["HH"], "event_count", s.agents["HH"].event_count + 1),
        lambda s: setattr(s.agents["HH"], "next_time", s.agents["HH"].next_time + 1),
        lambda s: setattr(s.channels["tax_hh"], "rate", s.channels["tax_hh"].rate + 1),
        lambda s: setattr(s.channels["tax_hh"], "multiplier", Fraction(1, 7)),
        lambda s: setattr(s.channels["tax_hh"], "snap_rate_sink", -1),
        lambda s: setattr(s.channels["tax_hh"], "accrued_num", s.channels["tax_hh"].accrued_num + 1),
        lambda s: setattr(s.channels["tax_hh"], "accrued_den", 2 * s.channels["tax_hh"].accrued_den),
        lambda s: setattr(s.channels["tax_hh"], "accrued_until", s.now + 1),
    ], ids=["now", "notes", "securities", "rates", "policy_cursor", "securities_cursor",
            "issuance_cursor", "pending_correction", "event_count", "next_time", "rate",
            "multiplier", "snap_rate_sink", "accrued_num", "accrued_den", "accrued_until"])
    def test_every_field_the_dynamics_read_counts(self, change):
        checkpoint = self.checkpoint()
        changed = checkpoint.clone()
        change(changed)
        assert anticipation._rejoin_key(changed) != anticipation._rejoin_key(checkpoint)

    def test_stocks_tallies_and_shocks_do_not(self):
        checkpoint = self.checkpoint()
        changed = checkpoint.clone()
        for agent in changed.agents.values():
            agent.stock += 7
            agent.received += 3
            agent.paid += 5
        for channel in changed.channels.values():
            channel.settled += 11
        changed.cursors["shock"] += 1
        changed.spec = changed.spec.with_extra_shocks([ShockSpec(9.0, "tax_hh", 40)])
        changed.log.append(None)
        assert anticipation._rejoin_key(changed) == anticipation._rejoin_key(checkpoint)


class TestSelect:
    """The report selects the highest score, ties going to the lowest id."""

    def report(self, monkeypatch, *scores):
        """`score_candidates` of candidates whose one replay each scores as given."""
        dims = ("a_stock",)  # a stock dim runs every replay with a nonzero shock
        spec = replace(three_agent_cycle(), figures=(FigureSpec("a_stock", stock="A"),))
        candidates = [simulate_candidate(spec, i, 2, dims) for i in range(len(scores))]
        divergences = iter(1.0 / s - 1.0 for s in scores)
        monkeypatch.setattr(anticipation, "sample_shock_sequence",
                            lambda pool, spec, config, m, n_terms: [ShockSpec(0.5, "ab", 40)])
        monkeypatch.setattr(anticipation, "_run_replay", lambda *args: next(divergences))
        report = score_candidates(candidates, spec, ReplayConfig(replays=1), dims)
        assert [s.score for s in report.scores] == pytest.approx(scores)
        return report

    def test_tie_breaks_to_lowest_index(self, monkeypatch):
        assert self.report(monkeypatch, 0.2, 0.9, 0.9).selected == 1

    def test_single_candidate(self, monkeypatch):
        assert self.report(monkeypatch, 0.4).selected == 0

    def test_argmax_invariant_under_monotone_transform(self, monkeypatch):
        scores = (0.3, 0.8, 0.5)
        squared = tuple(s * s for s in scores)
        assert self.report(monkeypatch, *scores).selected == \
               self.report(monkeypatch, *squared).selected

    def test_empty_report_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            score_candidates([], three_agent_cycle(), ReplayConfig())


class TestAnticipatePipeline:
    def config(self, **kwargs):
        defaults = dict(
            candidates=3,
            horizon_terms=2,
            dims=("consumption_flow", "bond_flow"),
            sampler=SamplerConfig(seed=21),
            replay=ReplayConfig(replays=3, seed=21),
        )
        defaults.update(kwargs)
        return AnticipateConfig(**defaults)

    def test_deterministic(self):
        spec = national_5().with_seed(77)
        r1, _ = anticipate(spec, self.config())
        r2, _ = anticipate(spec, self.config())
        assert r1 == r2

    def test_selected_in_range(self):
        spec = national_5().with_seed(78)
        report, candidates = anticipate(spec, self.config())
        assert 0 <= report.selected < len(candidates)
        assert len(report.scores) == 3

    @pytest.mark.parametrize("stock_dim", [False, True])
    def test_each_candidate_is_simulated_once(self, monkeypatch, stock_dim):
        spec, dims = tax_policy_spec(), ("consumption_flow", "bond_flow")
        if stock_dim:
            spec = replace(spec, figures=spec.figures + (FigureSpec("hh_stock", stock="HH"),))
            dims += ("hh_stock",)
        config = self.config(candidates=4, dims=dims, replay=ReplayConfig(replays=4, seed=21))
        calls = []
        simulate = anticipation.simulate_candidate
        monkeypatch.setattr(anticipation, "simulate_candidate",
                            lambda *args, **kwargs: calls.append(args) or simulate(*args, **kwargs))
        report, candidates = anticipate(spec, config)
        assert len(calls) == config.candidates
        assert candidates == sampled_candidates(spec, 4, config.sampler, n_terms=2, dims=dims)
        assert any(s.divergences != (0.0,) * 4 for s in report.scores) == stock_dim

    def test_flow_dims_without_offsets_take_no_checkpoint(self, monkeypatch):
        clones = []
        clone = NetworkState.clone
        monkeypatch.setattr(NetworkState, "clone", lambda state: clones.append(1) or clone(state))
        report, _ = anticipate(tax_policy_spec(), self.config(candidates=5))
        assert clones == []
        assert len(report.scores) == 5

    def test_jobs_do_not_change_results(self, cycle_spec, monkeypatch):
        # `jobs` is deprecated: replays run in this process at any value.
        opened = []

        class Pool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                opened.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        report = score_set(cycle_spec, jobs=3)
        assert opened == []
        assert report == score_set(cycle_spec, jobs=1)
        assert any(d != 0.0 for s in report.scores for d in s.divergences)
