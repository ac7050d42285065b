"""The public records: which are immutable tuples, which stay dataclasses."""

import dataclasses
import inspect
from fractions import Fraction

import pytest

import moneyflow
from moneyflow import (
    AgentLine,
    AnticipateConfig,
    Assignment,
    BalanceSheet,
    Candidate,
    CandidateScore,
    ChannelSpec,
    Event,
    FigureSpec,
    FitConfig,
    FitResult,
    IdentityReport,
    PolicyAction,
    Record,
    ReplayConfig,
    RobustnessReport,
    SamplerConfig,
    ScheduledAmount,
    ShockSpec,
)
from moneyflow.recorder import IdentityCheck

# The classes that stay dataclasses: the tests `dataclasses.replace` the two
# specs, `ScenarioSpec` and `Record` validate in `__post_init__`, and the
# engine mutates the three simulation objects.
DATACLASSES = {"AgentSpec", "ScenarioSpec", "Record", "Agent", "Channel", "NetworkState"}

_LINE = AgentLine(10, 4, 3, 11)
_CHECK = IdentityCheck("closing", True, 0)
# One instance of each immutable record, the field `_replace` changes, and
# the value it gets.
RECORDS = [
    (ChannelSpec("ab", "A", "B", 100), "rate", 90),
    (FigureSpec("ab_flow", channel="ab"), "channel", "bc"),
    (ScheduledAmount(1.0, 500), "amount", 400),
    (PolicyAction(2.0, "set_rate", "discount_rate", Fraction(1, 20)), "value", Fraction(1, 10)),
    (ShockSpec(1.5, "ab", 25), "amount", -25),
    (Event(0.5, 3, "Issue", {"amount": 5}), "seq", 4),
    (_LINE, "closing", 12),
    (BalanceSheet(0, {"A": _LINE}, 100, 0, {}, {}), "notes_outstanding", 90),
    (_CHECK, "passed", False),
    (IdentityReport((_CHECK,)), "checks", ()),
    (Assignment(offsets={"A": 7}), "gain_overrides", {"A": Fraction(2)}),
    (FitConfig(budget=50), "starts", 2),
    (FitResult(Assignment(), 0.5, 3, False, ((1, 0.5),)), "converged", True),
    (Candidate(0, (), Record(()), ((1.0,),), (), {}), "imbalance_pool", (2.0,)),
    (SamplerConfig(), "bound", 0.1),
    (ReplayConfig(), "replays", 4),
    (CandidateScore(0, 0.5, 2 / 3, (0.5,)), "score", 0.5),
    (RobustnessReport((), -1, ("ab_flow",)), "selected", 0),
    (AnticipateConfig(), "horizon_terms", 4),
]
# These hold a mapping, so hashing them raises TypeError, as it did for
# their dataclass forms.
HOLDS_MAPPING = {Event, BalanceSheet, Assignment, FitResult, Candidate}


class TestValueRecords:
    def test_exactly_six_exported_classes_are_dataclasses(self):
        classes = {name: value for name, value in vars(moneyflow).items()
                   if inspect.isclass(value) and value.__module__.startswith("moneyflow.")}
        assert {name for name, c in classes.items() if dataclasses.is_dataclass(c)} == DATACLASSES
        assert {type(record) for record, _, _ in RECORDS} >= {
            cls for cls in classes.values() if issubclass(cls, tuple)}

    @pytest.mark.parametrize("record,name,value", RECORDS,
                             ids=[type(record).__name__ for record, _, _ in RECORDS])
    def test_record_is_an_immutable_value(self, record, name, value):
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        copy = type(record)(*record)
        assert copy == record and copy is not record
        if type(record) in HOLDS_MAPPING:
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(copy) == hash(record)
        changed = record._replace(**{name: value})
        assert type(changed) is type(record)
        assert getattr(changed, name) == value and changed != record
        assert getattr(record, name) == before

    def test_assignment_defaults_are_read_only(self):
        # Every `Assignment()` shares these two defaults.
        for mapping in Assignment():
            assert dict(mapping) == {}
            with pytest.raises(TypeError):
                mapping["A"] = 1
