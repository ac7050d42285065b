"""Inverse fitting: retracing records from hidden initial rate offsets."""

import hashlib
import json
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import inf, sqrt

import pytest

from moneyflow import (
    Assignment,
    FitConfig,
    PolicyAction,
    build_network,
    fit,
    national_5,
    reproduction_error,
    retrace,
    three_agent_cycle,
)
from moneyflow import retrieval, rng
from moneyflow.recorder import BalanceSheet, Record, record_from_csv, record_to_csv
from moneyflow.retrieval import apply_assignment
from moneyflow.scenario import ChannelSpec, ScenarioError

from conftest import tiny_spec

# SHA-256 over the FitResult.to_dict() documents of `test_search_sweep_pin`,
# each rendered as sorted-key JSON.
FIT_SWEEP_PIN = "15aeb06c1a4bdb8959c89339251e8a4c61cfefe236abe139e2d50a2e4f30442d"


HIDDEN = Assignment(offsets={"A": 7, "B": -4, "C": 2})


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
    def test_zero_target_converges_at_first_evaluation(self):
        # The zero vector is evaluated before any start's search runs, so a
        # record the scenario itself produces fits to zero offsets in one
        # evaluation. That is why `anticipate` does not retrace its
        # candidates: each would fit to no offsets and keep its score. A
        # multiplier that moves within term 0 leaves the informed start
        # away from zero.
        midterm = three_agent_cycle().with_extra_policy(
            [PolicyAction(0.5, "set_multiplier", "ab", Fraction(2))])
        for spec, starts in product((three_agent_cycle(), national_5(), midterm), (1, 4, 8)):
            target = retrace(Assignment(), spec, 2)
            result = fit(target, spec, FitConfig(budget=100, seed=1, starts=starts))
            assert result.error == 0.0
            assert result.evaluations == 1
            assert result.converged
            assert result.trace == ((1, 0.0),)
            assert all(v == 0 for v in result.best.offsets.values())

    def test_agents_without_an_adjustable_channel_stay_at_zero(self):
        # B pays nothing, so only A's offset is searched.
        spec = tiny_spec()
        result = fit(retrace(Assignment(offsets={"A": 50}), spec, 3), spec, FitConfig(budget=200))
        assert result.converged and result.error == 0.0
        assert list(result.best.offsets) == ["A"]
        # With no adjustable channel nothing is searched: one evaluation at zero.
        fixed = replace(spec, channels=(ChannelSpec("ab", "A", "B", 10),))
        exact = fit(retrace(Assignment(), fixed, 2), fixed, FitConfig(budget=50))
        missed = fit(retrace(Assignment(offsets={"A": 50}), spec, 2), fixed, FitConfig(budget=50))
        assert exact.best.offsets == missed.best.offsets == {}
        assert exact.evaluations == missed.evaluations == 1
        assert exact.converged and exact.error == 0.0
        assert not missed.converged and missed.error > 0

    def test_replays_past_the_float_range_score_inf(self):
        # In terms of 1e308 an offset of 1 settles figures near 2e307, and one
        # of 100 settles figures that no float holds: that replay scores inf.
        spec = tiny_spec(rate=0)
        spec = replace(spec, term_length=1e308,
                       agents=tuple(replace(a, mean_wait=5e307) for a in spec.agents))
        target = retrace(Assignment(offsets={"A": 1}), spec, 1)
        objective = retrieval._Objective(target, spec, ("A",), 1, build_network(spec))
        assert objective((100,)) == inf and objective((100,), 0.5) == inf
        result = fit(target, spec, FitConfig(budget=50))
        assert result.converged and result.best.offsets == {"A": 1}

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

    def test_search_sweep_pin(self):
        # Every way a search ends: the tolerance met at a start, in the
        # pattern or in the polish phase; the budget spent in either phase;
        # and every start run out (a target recorded at another seed, which
        # no offsets reproduce). Only that last case reaches a third start.
        digest = hashlib.sha256()
        for seed in (100, 103, 105, 201):
            spec = three_agent_cycle().with_seed(seed)
            target = retrace(HIDDEN, spec, 2)
            for budget, starts, tolerance in product((1, 6, 90, 200), (1, 8), (0.5, 0.05, 1e-3)):
                result = fit(target, spec, FitConfig(budget, tolerance, seed, starts))
                digest.update(json.dumps(result.to_dict(), sort_keys=True).encode())
        spec = three_agent_cycle().with_seed(103)
        target = retrace(HIDDEN, spec.with_seed(104), 2)
        for starts in (1, 8):
            result = fit(target, spec, FitConfig(1000, 0.0, 103, starts))
            digest.update(json.dumps(result.to_dict(), sort_keys=True).encode())
        assert digest.hexdigest() == FIT_SWEEP_PIN


PROBES = [(7, -4, 2), (0, 0, 0), (6, -4, 2), (7, -4, 3), (8, -3, 2), (20, 5, -10)]


def bounded_objective(spec, target):
    return retrieval._Objective(target, spec, ("A", "B", "C"), len(target.sheets),
                                build_network(spec))


def reference(spec, target, vector):
    offsets = dict(zip(("A", "B", "C"), vector))
    return reproduction_error(retrace(Assignment(offsets=offsets), spec, len(target.sheets)),
                              target)


def keyed_error(simulated, target):
    """`reproduction_error` written out: each figure paired by key, summed figure-major."""
    def series(record):
        out = {}
        for sheet in record.sheets:
            figures = [(f"{kind}:{aid}", getattr(line, kind)) for aid, line in sheet.agents.items()
                       for kind in ("closing", "inflow", "outflow")]
            for name, value in figures + list(sheet.aggregates().items()):
                out.setdefault(name, []).append(value)
        return out

    sim, tgt = series(simulated), series(target)
    assert set(sim) == set(tgt)
    total, count = 0.0, 0
    for name, values in tgt.items():
        scale = max(1.0, max(abs(float(v)) for v in values))
        for s, t in zip(sim[name], values):
            total += ((float(s) - float(t)) / scale) ** 2
            count += 1
    return sqrt(total / count)


def agents_reversed(record):
    """The record read back from a CSV that lists each term's agents in reverse order."""
    lines = record_to_csv(record).splitlines(keepends=True)
    agent_rows = [i for i, line in enumerate(lines) if ",agent," in line]
    for term in range(len(record.sheets)):
        rows = [i for i in agent_rows if lines[i].startswith(f"{term},")]
        for i, line in zip(rows, [lines[i] for i in reversed(rows)]):
            lines[i] = line
    return record_from_csv("".join(lines))


class TestObjectiveMatchesTheReference:
    """Every complete evaluation equals `reproduction_error` of the vector's
    retrace, and the keyed formula, bit for bit."""

    GRID = [(7 + a, -4 + b, 2 + c) for a, b, c in product((-9, -1, 0, 2), (-1, 0, 3), (0, 5))]

    @pytest.mark.parametrize("reorder", [False, True], ids=["regular", "agents-reordered"])
    def test_over_a_grid(self, reorder):
        spec = three_agent_cycle().with_seed(104)
        target = retrace(HIDDEN, spec, 3)
        if reorder:
            target = agents_reversed(target)
            assert list(target.sheets[0].agents) == ["C", "B", "A", "CB"]
        objective, bounded = bounded_objective(spec, target), bounded_objective(spec, target)
        assert objective.rows
        for vector in self.GRID:
            simulated = retrace(Assignment(offsets=dict(zip("ABC", vector))), spec, 3)
            expected = reproduction_error(simulated, target)
            assert expected == keyed_error(simulated, target)
            assert objective(vector) == expected
            assert expected / 3 <= bounded(vector, expected / 3) <= expected
        assert 0 < bounded.early_exits < len(self.GRID)
        # Every replay has one layout, paired with the target's through one
        # position map: the identity unless the target lists agents otherwise.
        orders = objective.yardstick.orders
        order = orders[retrieval._sheet_row(simulated.sheets[0])[0]]
        assert (order == tuple(range(len(order)))) != reorder
        assert len(orders) == 1 + reorder


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

    def test_second_replay_of_a_vector_draws_nothing(self, monkeypatch):
        # Each replay starts from a fresh clone of the base; the wake tables
        # and offset moves the first one made serve the second.
        calls = []

        def counted(module, name):
            original = getattr(module, name)

            def call(*args):
                calls.append(name)
                return original(*args)
            monkeypatch.setattr(module, name, call)

        counted(rng, "exponential")
        counted(retrieval, "apportion")
        spec = three_agent_cycle().with_seed(104)
        objective = bounded_objective(spec, retrace(HIDDEN, spec, 4))
        calls.clear()
        first = objective._replay((20, 5, -10), inf)
        assert calls.count("exponential") > 0 and calls.count("apportion") == 3
        calls.clear()
        assert objective._replay((20, 5, -10), inf) == first
        assert calls == []

    def test_cached_moves_give_the_rates_of_apply_assignment(self, monkeypatch):
        starts = []
        record_terms = retrieval.record_terms

        def recorded(state):
            starts.append({cid: ch.rate for cid, ch in state.channels.items()})
            return record_terms(state)

        monkeypatch.setattr(retrieval, "record_terms", recorded)
        spec = three_agent_cycle().with_seed(104)
        objective = bounded_objective(spec, retrace(HIDDEN, spec, 4))
        for vector in PROBES + PROBES:
            objective._replay(vector, inf)
            state = apply_assignment(build_network(spec),
                                     Assignment(offsets=dict(zip(("A", "B", "C"), vector))))
            assert starts.pop() == {cid: ch.rate for cid, ch in state.channels.items()}

    @pytest.mark.parametrize("spec, vector, message", [
        (three_agent_cycle(), (-301, 0, 0), "offset -301 for agent 'A' drives channel 'ab' below zero"),
        (tiny_spec(), (0, 1), "agent 'B' has no adjustable outgoing channel for its offset"),
    ], ids=["below-zero", "no-channel"])
    def test_rejected_offsets_raise_as_apply_assignment_does(self, spec, vector, message):
        agent_ids = ("A", "B", "C")[:len(vector)]
        objective = retrieval._Objective(retrace(Assignment(), spec, 2), spec, agent_ids, 2,
                                         build_network(spec))
        with pytest.raises(ScenarioError) as direct:
            apply_assignment(build_network(spec), Assignment(offsets=dict(zip(agent_ids, vector))))
        assert str(direct.value) == message
        for _ in range(2):
            with pytest.raises(ScenarioError) as cached:
                objective._replay(vector, inf)
            assert str(cached.value) == message

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
