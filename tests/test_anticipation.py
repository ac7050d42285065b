"""Candidate futures, divergence scoring, and robust-trajectory selection."""

import concurrent.futures
import multiprocessing
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moneyflow import (
    AnticipateConfig,
    Assignment,
    CandidateScore,
    ReplayConfig,
    RobustnessReport,
    SamplerConfig,
    anticipate,
    build_network,
    divergence,
    extract_trajectory,
    generate_candidates,
    robustness_score,
    run_record,
    score_candidates,
    select_most_robust,
    simulate_candidate,
    three_agent_cycle,
)
from moneyflow import anticipation
from moneyflow.anticipation import default_scales
from moneyflow.recorder import BalanceSheet, Record
from moneyflow.retrieval import apply_assignment
from moneyflow.scenario import ScenarioError, ShockSpec, national_5

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
        with pytest.raises(KeyError, match="unknown trajectory dimension"):
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


class TestGenerateCandidates:
    def test_single_candidate_is_baseline(self, national5_spec):
        cands = generate_candidates(national5_spec, 1, n_terms=2)
        assert len(cands) == 1
        assert cands[0].schedule == ()

    def test_zero_bound_collapses_to_baseline(self, national5_spec):
        cands = generate_candidates(national5_spec, 3, SamplerConfig(bound=0.0, seed=5), n_terms=2)
        # Same sheets and trajectories; fingerprints legitimately differ since
        # the sampled (no-op) schedules are part of each candidate's scenario.
        assert all(c.record.sheets == cands[0].record.sheets for c in cands)
        assert all(c.trajectory == cands[0].trajectory for c in cands)

    def test_fixed_seed_reproducible(self, national5_spec):
        a = generate_candidates(national5_spec, 4, SamplerConfig(seed=9), n_terms=2)
        b = generate_candidates(national5_spec, 4, SamplerConfig(seed=9), n_terms=2)
        assert [c.record for c in a] == [c.record for c in b]

    def test_common_initial_phase_point(self, national5_spec):
        dims = ("notes_outstanding", "consumption_flow", "bond_flow")
        cands = generate_candidates(national5_spec, 5, SamplerConfig(seed=2), n_terms=3, dims=dims)
        first_points = {c.trajectory[0] for c in cands}
        assert len(first_points) == 1

    def test_at_least_one_candidate_required(self, national5_spec):
        with pytest.raises(ValueError):
            generate_candidates(national5_spec, 0, n_terms=1)

    def test_unknown_sampler_channel_rejected(self, national5_spec):
        with pytest.raises(ScenarioError, match="unknown channel 'nope'"):
            generate_candidates(national5_spec, 2, SamplerConfig(channels=("nope",)), n_terms=1)

    @pytest.mark.parametrize("bound", [3.0, -3.0, 1.0 + 2 ** -52, float("nan")])
    def test_bound_outside_unit_interval_rejected_before_any_run(self, national5_spec, bound,
                                                                 monkeypatch):
        # Above 1 some grid factors 1 + k * bound / GRID are negative; below 0
        # the grid turns over and the factors reach 1 + |bound|.
        def must_not_run(*args, **kwargs):
            raise AssertionError("a candidate was simulated")

        monkeypatch.setattr(anticipation, "simulate_candidate", must_not_run)
        with pytest.raises(ScenarioError, match=r"sampler bound must lie in \[0, 1\]"):
            generate_candidates(national5_spec, 5, SamplerConfig(bound=bound), n_terms=2)


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
    candidates = generate_candidates(spec, 3, SamplerConfig(seed=6, channels=("ab",)),
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
        pools = []
        sample = anticipation.sample_shock_sequence

        def recording(pool, *args):
            pools.append(pool)
            return sample(pool, *args)

        monkeypatch.setattr(anticipation, "sample_shock_sequence", recording)
        score_set(cycle_spec, jobs=1)
        candidates, assignments = cycle_set(cycle_spec)
        bases = [simulate_candidate(cycle_spec, c.id, 3, CYCLE_DIMS, schedule=c.schedule,
                                    assignment=assignments.get(c.id)) for c in candidates]
        assert bases[2].imbalance_pool != bases[0].imbalance_pool
        assert pools == [bases[0].imbalance_pool] * 12


def from_scratch_divergences(candidates, spec, dims, assignments, shock_lists):
    """Each candidate's divergence under each shock list, every replay run
    over the whole horizon from a fresh build with all of its shocks, zero
    ones included: the scoring before replays resumed from checkpoints."""
    bases = []
    for c in candidates:
        assignment = assignments.get(c.id)
        if assignment is not None and (assignment.offsets or assignment.gain_overrides):
            c = simulate_candidate(spec, c.id, len(c.record.sheets), dims,
                                   schedule=c.schedule, assignment=assignment)
        bases.append(c)
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
    candidates = generate_candidates(spec, 3, SamplerConfig(seed=6, channels=("ab",)),
                                     n_terms=n_terms, dims=CYCLE_DIMS)
    offsets = {"A": 30, "C": -15}
    assignments = {0: Assignment(offsets=offsets),
                   2: Assignment(offsets=offsets, gain_overrides=dict.fromkeys("ABC", Fraction(3)))}
    return spec, candidates, assignments


def checkpointed_divergences(monkeypatch, spec, candidates, assignments, shock_lists, jobs):
    """`score_candidates` with its sampled shocks replaced by `shock_lists`."""
    monkeypatch.setattr(anticipation, "sample_shock_sequence",
                        lambda pool, spec, config, m, n_terms: list(shock_lists[m]))
    config = ReplayConfig(replays=len(shock_lists), jobs=jobs)
    report = score_candidates(candidates, spec, config, CYCLE_DIMS, assignments)
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
    """Replays resumed from checkpoints give the from-scratch divergences, bit for bit."""

    @pytest.mark.parametrize("jobs", [1, 2])
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
            [ShockSpec(0.0, "ab", 60)],  # at time 0: resumes at term 0
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
                                           shock_lists, jobs=1)
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

    def test_replays_without_a_nonzero_shock_do_not_run(self, cycle_spec, monkeypatch):
        candidates, assignments = cycle_set(cycle_spec)
        ran = []
        monkeypatch.setattr(anticipation, "_run_replay", lambda task: ran.append(task) or 1.0)
        shock_lists = [[], [ShockSpec(0.5, "ab", 0)], [ShockSpec(1.5, "ab", 0),
                                                         ShockSpec(2.0, "bc", 5)]]
        got = checkpointed_divergences(monkeypatch, cycle_spec, candidates, assignments,
                                       shock_lists, jobs=1)
        assert got == [[0.0, 0.0, 1.0]] * 3
        # Each task starts at term 2 with the one nonzero shock.
        assert [(task[1], task[2]) for task in ran] == [(2, [ShockSpec(2.0, "bc", 5)])] * 3


class TestFanOut:
    """A set's replays run in one process pool, under any start method."""

    def patch_pool(self, monkeypatch, **extra):
        opened = []

        class Pool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                opened.append(kwargs)
                super().__init__(*args, **kwargs, **extra)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        return opened

    @pytest.mark.parametrize("jobs,pools", [(1, 0), (2, 1), (3, 1)])
    def test_one_pool_per_set(self, cycle_spec, monkeypatch, jobs, pools):
        opened = self.patch_pool(monkeypatch)
        report = score_set(cycle_spec, jobs)
        assert len(opened) == pools
        assert [len(s.divergences) for s in report.scores] == [4, 4, 4]

    def test_spawn_start_method_same_report(self, cycle_spec, monkeypatch):
        serial = score_set(cycle_spec, jobs=1)
        opened = self.patch_pool(monkeypatch, mp_context=multiprocessing.get_context("spawn"))
        assert score_set(cycle_spec, jobs=2) == serial
        assert len(opened) == 1


class TestSelect:
    def report(self, *scores):
        entries = tuple(
            CandidateScore(i, 1.0 / s - 1.0 if s else 0.0, s, ()) for i, s in enumerate(scores)
        )
        return RobustnessReport(entries, selected=-1, dims=("x",))

    def test_tie_breaks_to_lowest_index(self):
        assert select_most_robust(self.report(0.2, 0.9, 0.9)) == 1

    def test_single_candidate(self):
        assert select_most_robust(self.report(0.4)) == 0

    def test_argmax_invariant_under_monotone_transform(self):
        scores = (0.3, 0.8, 0.5)
        squared = tuple(s * s for s in scores)
        assert select_most_robust(self.report(*scores)) == \
               select_most_robust(self.report(*squared))

    def test_empty_report_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            select_most_robust(RobustnessReport((), selected=-1, dims=()))


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

    def test_jobs_do_not_change_results(self, cycle_spec):
        dims = ("ab_flow", "bc_flow", "ca_flow")
        assignment = Assignment(offsets={"A": 25})
        candidate = simulate_candidate(cycle_spec, 0, 3, dims, assignment=assignment)
        serial = robustness_score(candidate, cycle_spec,
                                  ReplayConfig(replays=4, seed=6, jobs=1), dims, assignment)
        parallel = robustness_score(candidate, cycle_spec,
                                    ReplayConfig(replays=4, seed=6, jobs=2), dims, assignment)
        assert serial == parallel
        reports = [score_set(cycle_spec, jobs) for jobs in (1, 2)]
        assert reports[0] == reports[1]
        assert any(d != 0.0 for s in reports[0].scores for d in s.divergences)

    def test_fit_candidates_mode_runs(self, cycle_spec):
        from moneyflow import FitConfig

        config = AnticipateConfig(
            candidates=2,
            horizon_terms=2,
            dims=("ab_flow", "bc_flow", "ca_flow"),
            sampler=SamplerConfig(seed=31, channels=("ab",)),
            replay=ReplayConfig(replays=2, seed=31),
            fit_candidates=True,
            fit=FitConfig(budget=60, starts=2, seed=31),
        )
        report, candidates = anticipate(cycle_spec, config)
        assert len(report.scores) == 2
        assert 0 <= report.selected < 2
