"""Inverse fitting: retracing records from hidden initial rate offsets."""

from fractions import Fraction
from math import inf, sqrt

import pytest

from moneyflow import (
    Assignment,
    FitConfig,
    PolicyAction,
    build_network,
    fit,
    reproduction_error,
    retrace,
    three_agent_cycle,
)
from moneyflow import retrieval
from moneyflow.recorder import BalanceSheet, Record
from moneyflow.retrieval import apply_assignment
from moneyflow.scenario import ScenarioError

from conftest import tiny_spec


class TestApplyAssignment:
    def test_offsets_leave_snapshots_at_spec(self, cycle_spec):
        state = build_network(cycle_spec)
        apply_assignment(state, Assignment(offsets={"A": 12}))
        assert state.channels["ab"].rate == 312
        assert state.channels["ab"].snap_rate_sink == 300

    def test_offset_below_zero_rejected(self, cycle_spec):
        state = build_network(cycle_spec)
        with pytest.raises(ScenarioError, match="below zero"):
            apply_assignment(state, Assignment(offsets={"A": -301}))

    def test_gain_override(self, cycle_spec):
        state = build_network(cycle_spec)
        apply_assignment(state, Assignment(gain_overrides={"B": Fraction(3)}))
        assert state.agents["B"].gain == 3

    def test_unknown_agent_rejected(self, cycle_spec):
        state = build_network(cycle_spec)
        with pytest.raises(ScenarioError, match="unknown agent"):
            apply_assignment(state, Assignment(offsets={"ZZ": 1}))

    def test_exempt_agent_rejected(self, cycle_spec):
        state = build_network(cycle_spec)
        with pytest.raises(ScenarioError, match="exempt"):
            apply_assignment(state, Assignment(offsets={"CB": 1}))


class TestRetrace:
    def test_zero_assignment_reproduces_plain_run(self, cycle_spec):
        from moneyflow import run_record

        plain = run_record(build_network(cycle_spec), 3)
        traced = retrace(Assignment(), cycle_spec, 3)
        assert traced == plain

    def test_same_assignment_twice_identical(self, cycle_spec):
        a = retrace(Assignment(offsets={"A": 5}), cycle_spec, 3)
        b = retrace(Assignment(offsets={"A": 5}), cycle_spec, 3)
        assert a == b

    def test_offset_visible_in_first_term_before_corrections(self):
        # Zero gains: nothing reacts, so the shifted rate flows through whole.
        spec = tiny_spec(gain=Fraction(0), seed=8)
        base = retrace(Assignment(), spec, 1)
        shifted = retrace(Assignment(offsets={"A": 10}), spec, 1)
        assert base.sheets[0].figures["ab_flow"] == 10
        assert shifted.sheets[0].figures["ab_flow"] == 20


def one_figure_record(*values: int, name: str = "x") -> Record:
    """One figure `name` per term; each sheet's four default aggregates read 0,
    so `reproduction_error` averages over five figures."""
    sheets = tuple(
        BalanceSheet(i, {}, 0, 0, {}, {name: v}) for i, v in enumerate(values)
    )
    return Record(sheets)


class TestReproductionError:
    def test_identical_records_zero(self, cycle_spec):
        record = retrace(Assignment(), cycle_spec, 2)
        assert reproduction_error(record, record) == 0.0

    def test_single_figure_arithmetic(self):
        target = one_figure_record(100)
        simulated = one_figure_record(110)
        assert reproduction_error(simulated, target) == pytest.approx(0.1 / sqrt(5))

    def test_scale_floor_of_one(self):
        target = one_figure_record(0)
        simulated = one_figure_record(2)
        assert reproduction_error(simulated, target) == pytest.approx(2.0 / sqrt(5))

    def test_term_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="term count"):
            reproduction_error(one_figure_record(1), one_figure_record(1, 2))

    def test_figure_set_mismatch_rejected(self):
        with pytest.raises(ValueError, match="figure sets differ"):
            reproduction_error(one_figure_record(1, name="x"), one_figure_record(1, name="y"))


class TestFit:
    def test_zero_target_converges_at_first_evaluation(self, cycle_spec):
        target = retrace(Assignment(), cycle_spec, 2)
        result = fit(target, cycle_spec, FitConfig(budget=100, seed=1))
        assert result.error == 0.0
        assert result.evaluations == 1
        assert result.converged
        assert result.trace == ((1, 0.0),)
        assert all(v == 0 for v in result.best.offsets.values())

    def test_budget_one_returns_first_start(self, cycle_spec):
        target = retrace(Assignment(offsets={"A": 6}), cycle_spec, 2)
        result = fit(target, cycle_spec, FitConfig(budget=1, seed=1))
        assert result.evaluations == 1
        assert not result.converged

    def test_trace_strictly_decreasing_and_final(self, cycle_spec):
        target = retrace(Assignment(offsets={"A": 9, "B": -3, "C": 4}), cycle_spec, 3)
        result = fit(target, cycle_spec, FitConfig(budget=2000, seed=3, starts=3))
        errors = [e for _, e in result.trace]
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert errors[-1] == result.error
        indices = [i for i, _ in result.trace]
        assert all(b > a for a, b in zip(indices, indices[1:]))

    def test_deterministic_given_seed(self, cycle_spec):
        target = retrace(Assignment(offsets={"A": 6, "C": -2}), cycle_spec, 2)
        config = FitConfig(budget=400, seed=11, starts=2)
        assert fit(target, cycle_spec, config) == fit(target, cycle_spec, config)

    def test_recovers_hidden_assignment(self):
        spec = three_agent_cycle().with_seed(104)
        hidden = Assignment(offsets={"A": 7, "B": -4, "C": 2})
        target = retrace(hidden, spec, 4)
        result = fit(target, spec, FitConfig(budget=10_000, seed=104, starts=8))
        assert result.converged
        assert result.error <= 1e-3

    def test_prefix_ignores_later_terms(self, cycle_spec):
        hidden = Assignment(offsets={"A": 5, "B": -2, "C": 0})
        target = retrace(hidden, cycle_spec, 4)
        config = FitConfig(budget=600, seed=7, starts=2, prefix_terms=2)
        baseline = fit(target, cycle_spec, config)
        # Corrupt everything after the prefix; the fit must not notice.
        corrupted_sheets = list(target.sheets[:2])
        for sheet in target.sheets[2:]:
            corrupted_sheets.append(BalanceSheet(
                sheet.term_index, sheet.agents, sheet.notes_outstanding + 999,
                sheet.securities_outstanding, sheet.rates,
                {k: v + 123 for k, v in sheet.figures.items()},
            ))
        corrupted = Record(tuple(corrupted_sheets), target.fingerprint,
                           target.term_length, target.initial_total_stock)
        assert fit(corrupted, cycle_spec, config) == baseline

    def test_budget_must_be_positive(self, cycle_spec):
        target = retrace(Assignment(), cycle_spec, 1)
        with pytest.raises(ValueError, match="budget"):
            fit(target, cycle_spec, FitConfig(budget=0))

    def test_empty_target_rejected(self, cycle_spec):
        with pytest.raises(ValueError, match="no terms"):
            fit(Record(()), cycle_spec, FitConfig(budget=10))


HIDDEN = Assignment(offsets={"A": 7, "B": -4, "C": 2})
PROBES = [(7, -4, 2), (0, 0, 0), (6, -4, 2), (7, -4, 3), (8, -3, 2), (20, 5, -10)]


def bounded_objective(spec, target):
    return retrieval._Objective(target, spec, ("A", "B", "C"), len(target.sheets),
                                build_network(spec))


def reference(spec, target, vector):
    offsets = dict(zip(("A", "B", "C"), vector))
    return reproduction_error(retrace(Assignment(offsets=offsets), spec, len(target.sheets)),
                              target)


class TestBoundedObjective:
    def test_exact_below_the_bound_and_a_floor_above_it(self):
        spec = three_agent_cycle().with_seed(104)
        target = retrace(HIDDEN, spec, 4)
        for vector in PROBES:
            ref = reference(spec, target, vector)
            for bound in (0.0, ref / 2, ref, ref * (1 + 1e-12), ref * 2, 1e-6, inf):
                value = bounded_objective(spec, target)(vector, bound)
                if ref < bound:
                    assert value == ref
                else:
                    assert bound <= value <= ref

    def test_floor_queried_with_a_higher_bound_replays_without_counting(self):
        spec = three_agent_cycle().with_seed(104)
        target = retrace(HIDDEN, spec, 4)
        objective = bounded_objective(spec, target)
        vector = (20, 5, -10)
        ref = reference(spec, target, vector)
        floor = objective(vector, ref / 4)
        assert objective.early_exits == 1 and objective.evaluations == 1
        assert ref / 4 <= floor < ref
        assert objective(vector, floor) == floor
        assert objective(vector, inf) == ref
        assert objective(vector, ref / 4) == ref
        assert objective.evaluations == 1
        assert objective.early_exits == 1
        assert objective.floors == {}

    def test_undeclared_rate_disables_the_early_exit(self):
        # A set_rate on a rate the scenario does not declare adds a figure
        # mid-record; every evaluation then replays in full.
        spec = three_agent_cycle().with_seed(104).with_extra_policy(
            [PolicyAction(1.5, "set_rate", "new_rate", Fraction(1, 10))])
        target = retrace(HIDDEN, spec, 4)
        objective = bounded_objective(spec, target)
        assert objective.rows == []
        for vector in PROBES:
            assert objective(vector, 0.0) == reference(spec, target, vector)
        assert objective.early_exits == 0

    def test_losing_candidates_stop_early_in_a_fit(self, monkeypatch):
        objectives = []

        class Recording(retrieval._Objective):
            def __init__(self, *args):
                super().__init__(*args)
                objectives.append(self)

        monkeypatch.setattr(retrieval, "_Objective", Recording)
        spec = three_agent_cycle().with_seed(102)
        result = fit(retrace(HIDDEN, spec, 4), spec,
                     FitConfig(budget=10_000, tolerance=1e-3, seed=102, starts=8))
        assert result.converged
        assert 0 < objectives[0].early_exits < result.evaluations
