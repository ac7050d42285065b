"""Scenario parsing, exact rational handling, and shipped scenario files."""

import hashlib
import json
import math
import re
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moneyflow import (
    BUILTIN_SCENARIOS,
    build_network,
    load_scenario,
    run_record,
    scenario_from_dict,
    three_agent_cycle,
    two_agent_kernel,
)
from moneyflow.recorder import record_from_csv, record_to_csv
from moneyflow.scenario import (
    AgentSpec,
    ChannelSpec,
    FigureSpec,
    PolicyAction,
    ScenarioError,
    ScenarioSpec,
    ScheduledAmount,
    ShockSpec,
    as_fraction,
    as_money,
    rational_str,
)

from conftest import json_values, true_imbalance

REPO = Path(__file__).parent.parent


class TestRationals:
    @pytest.mark.parametrize("raw, expected", [
        ("1/2", Fraction(1, 2)),
        ("0.25", Fraction(1, 4)),
        (3, Fraction(3)),
        (0.2, Fraction(1, 5)),  # via the decimal literal, not the binary float
    ])
    def test_as_fraction(self, raw, expected):
        assert as_fraction(raw) == expected

    def test_as_fraction_rejects_garbage(self):
        with pytest.raises(ScenarioError):
            as_fraction("not-a-number")

    def test_money_must_be_integer(self):
        with pytest.raises(ScenarioError, match="integer"):
            as_money(1.5)
        with pytest.raises(ScenarioError, match="integer"):
            as_money(True)

    @pytest.mark.parametrize("value, text", [
        (Fraction(1, 40), "0.025"),
        (Fraction(3, 100), "0.03"),
        (Fraction(1, 3), "1/3"),
        (Fraction(-7, 4), "-1.75"),
        (Fraction(5), "5"),
        (Fraction(0), "0"),
        (Fraction(-1, 40), "-0.025"),
        (Fraction(1, 2 ** 10), "0.0009765625"),
        (Fraction(-3, 5 ** 4), "-0.0048"),
        (Fraction(-7, 60), "-7/60"),
    ])
    def test_rational_str_exact(self, value, text):
        assert rational_str(value) == text
        assert as_fraction(text) == value


class TestParsing:
    def minimal(self):
        return {
            "name": "m",
            "agents": [{"id": "CB", "role": "CentralBank"},
                       {"id": "A", "role": "HouseholdSector", "gain": "1/2"}],
            "channels": [],
        }

    def test_minimal_parses(self):
        spec = scenario_from_dict(self.minimal())
        assert next(a for a in spec.agents if a.id == "A").gain == Fraction(1, 2)
        assert spec.rates["discount_rate"] == 0

    def test_missing_field_named(self):
        doc = self.minimal()
        del doc["agents"][0]["role"]
        with pytest.raises(ScenarioError, match="missing required field 'role'"):
            scenario_from_dict(doc)

    def test_negative_gain_rejected(self):
        doc = self.minimal()
        doc["agents"][1]["gain"] = "-1"
        with pytest.raises(ScenarioError, match="gain must be non-negative"):
            scenario_from_dict(doc)

    def test_bad_seed_rejected(self):
        doc = self.minimal()
        doc["seed"] = -3
        with pytest.raises(ScenarioError, match="seed"):
            scenario_from_dict(doc)

    def test_figure_needs_exactly_one_target(self):
        doc = self.minimal()
        doc["figures"] = [{"name": "f"}]
        with pytest.raises(ScenarioError, match="exactly one of channel/stock"):
            scenario_from_dict(doc)

    def test_deep_nesting_names_the_file(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ScenarioError, match=f"^{re.escape(str(path))}: JSON nested too deeply"):
            load_scenario(path)


class TestRecordableNames:
    """Agent ids, figure and rate names must fit a CSV record cell."""

    @pytest.mark.parametrize("name", ["A,1", "A 1", "A\t1", "A=1", "", "A\n"])
    @pytest.mark.parametrize("where", ["agent id", "figure name", "rate name"])
    def test_rejected_on_load(self, where, name):
        doc = {"agents": [{"id": "CB", "role": "CentralBank"},
                          {"id": "A", "role": "HouseholdSector"}],
               "channels": [], "figures": [{"name": "f", "stock": "A"}], "rates": {}}
        if where == "agent id":
            doc["agents"][1]["id"] = name
            doc["figures"][0]["stock"] = name
        elif where == "figure name":
            doc["figures"][0]["name"] = name
        else:
            doc["rates"][name] = "0.1"
        with pytest.raises(ScenarioError, match=re.escape(f"{where} {name!r}: a record cannot hold")):
            scenario_from_dict(doc)

    def test_rejected_on_construction(self):
        spec = two_agent_kernel()
        with pytest.raises(ScenarioError, match="agent id 'A,1'"):
            replace(spec, agents=(*spec.agents, AgentSpec("A,1", "Custom:pair")))

    @pytest.mark.parametrize("name", ["notes_outstanding", "government_securities_outstanding",
                                      "discount_rate", "securities_interest_rate", "tax_rate",
                                      "target_rate", "closing:A", "inflow:B", "outflow:C"])
    def test_aggregate_names_rejected_for_figures(self, name):
        # A figure of one of these names shares the aggregates cell of a CSV
        # record with the aggregate, so the record would not read back equal;
        # one named like an agent's line would give its sheets one key twice.
        spec = replace(three_agent_cycle(), rates={"tax_rate": Fraction(1, 8)}).with_extra_policy(
            [PolicyAction(1.0, "set_rate", "target_rate", Fraction(1, 4))])
        with pytest.raises(ScenarioError, match=f"figure name {name!r} is the name of another "
                                                "record figure"):
            replace(spec, figures=spec.figures + (FigureSpec(name, stock="A"),))
        doc = spec.to_dict()
        doc["figures"].append({"name": name, "stock": "A"})
        with pytest.raises(ScenarioError, match=f"figure name {name!r}"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("name", ["notes_outstanding", "government_securities_outstanding",
                                      "closing:A", "inflow:B", "outflow:C"])
    def test_total_names_rejected_for_rates(self, name):
        # A rate of one of these names shares the aggregates cell of a CSV
        # record with the total, so the record would not read back; one named
        # like an agent's line would give its sheets one key twice.
        spec = three_agent_cycle()
        with pytest.raises(ScenarioError, match=f"rate name {name!r} is the name of another "
                                                "record figure"):
            replace(spec, rates={name: Fraction(1, 8)})
        with pytest.raises(ScenarioError, match=f"rate name {name!r}"):
            spec.with_extra_policy([PolicyAction(1.0, "set_rate", name, Fraction(1, 4))])
        doc = spec.to_dict()
        doc["rates"][name] = "1/8"
        with pytest.raises(ScenarioError, match=f"rate name {name!r}"):
            scenario_from_dict(doc)

    def test_rates_are_read_only(self):
        # Else a name the spec would reject could reach a record after construction.
        with pytest.raises(TypeError):
            three_agent_cycle().rates["closing:A"] = Fraction(1, 8)

    def test_other_characters_round_trip(self):
        spec = replace(three_agent_cycle(), rates={"rate.1/2;#": Fraction(1, 8)},
                       figures=(FigureSpec("ab:flow-é", channel="ab"),))
        record = run_record(build_network(spec), 2)
        assert record_from_csv(record_to_csv(record)) == record


BASE = three_agent_cycle()  # agents CB, A, B and C; channels ab, bc and ca; no schedules
BASE_FIELDS = {f.name: getattr(BASE, f.name) for f in fields(BASE)}


def agent_a(**changes):
    """BASE's agents with agent A changed."""
    return tuple(replace(a, **changes) if a.id == "A" else a for a in BASE.agents)


def document(edits):
    """The scenario document of BASE with `edits`, valid or not; `to_dict` reads only attributes."""
    doc = ScenarioSpec.to_dict(SimpleNamespace(**{**BASE_FIELDS, **edits}))
    doc["figures"] = [{k: v for k, v in f._asdict().items() if v is not None}
                      for f in edits.get("figures", BASE.figures)]
    return doc


RESERVED = "is the name of another record figure"
UNRECORDABLE = "a record cannot hold an empty name or one with a comma, whitespace or '='"
# Every scenario rule: its edits of BASE and the message that reports them.
# The seed rule is checked first, then the schedule times, the name and
# term_length, then each entity once: agents (with the wake ceiling and the
# central bank), channels, policy, rate names, shocks and figures.
EARLIER_RULES = [
    ("seed", {"seed": -1}, "seed must be an unsigned 64-bit integer, got -1"),
    ("unrecordable-id", {"agents": agent_a(id="A,1")}, f"agent id 'A,1': {UNRECORDABLE}"),
    ("unrecordable-rate-target", {"policy": (PolicyAction(1.0, "set_rate", "a b", Fraction(1)),)},
     f"rate name 'a b': {UNRECORDABLE}"),
    ("reserved-rate", {"policy": (PolicyAction(1.0, "set_rate", "notes_outstanding", Fraction(1)),)},
     f"rate name 'notes_outstanding' {RESERVED} (notes or securities outstanding, or an agent's "
     "closing, inflow or outflow)"),
    ("reserved-figure", {"figures": (FigureSpec("closing:A", stock="A"),)},
     f"figure name 'closing:A' {RESERVED} (notes or securities outstanding, a rate, or an agent's "
     "closing, inflow or outflow)"),
    ("repeated-figure", {"figures": BASE.figures + BASE.figures[:1]},
     "figure name 'ab_flow' is used more than once"),
]
RULES = EARLIER_RULES + [
    ("issuance-time-nan", {"issuance": (ScheduledAmount(math.nan, 5),)},
     "issuance_schedule time: expected a finite number, got nan"),
    ("securities-time-nan", {"securities": (ScheduledAmount(math.nan, 5),)},
     "securities_schedule time: expected a finite number, got nan"),
    ("policy-time-nan", {"policy": (PolicyAction(math.nan, "set_rate", "discount_rate", Fraction(1)),)},
     "policy time: expected a finite number, got nan"),
    ("shock-time-inf", {"shocks": (ShockSpec(math.inf, "ab", 5),)},
     "shock time: expected a finite number, got inf"),
    ("name-line-break", {"name": "a\nb"}, "scenario: name must not contain a line break, got 'a\\nb'"),
    ("term-length-0", {"term_length": 0}, "term_length must be positive, got 0.0"),
    ("term-length-negative", {"term_length": -1}, "term_length must be positive, got -1.0"),
    ("term-length-nan", {"term_length": math.nan}, "term_length: expected a finite number, got nan"),
    ("term-length-inf", {"term_length": math.inf}, "term_length: expected a finite number, got inf"),
    ("negative-gain", {"agents": agent_a(gain=Fraction(-1))}, "agent 'A': gain must be non-negative"),
    ("misspelt-action", {"policy": (PolicyAction(0.5, "set_multplier", "closing:A", Fraction(2)),)},
     "policy entry: unknown action 'set_multplier'"),
    ("figure-no-source", {"figures": (FigureSpec("f"),)},
     "figure 'f': exactly one of channel/stock required"),
    ("figure-both-sources", {"figures": (FigureSpec("f", channel="ab", stock="A"),)},
     "figure 'f': exactly one of channel/stock required"),
    ("duplicate-agent", {"agents": BASE.agents + (AgentSpec("A", "Custom:x"),)},
     "duplicate agent id 'A'"),
    ("mean-wait", {"agents": agent_a(mean_wait=0.0)}, "agent 'A': mean_wait must be positive, got 0.0"),
    ("wake-ceiling", {"agents": agent_a(mean_wait=1e-300)},
     "agents would wake about 1e+300 times per term (term_length x sum of 1/mean_wait), above the "
     "limit of 1e+06; raise mean_wait"),
    ("no-central-bank", {"agents": BASE.agents[1:]},
     "network must contain exactly one CentralBank agent, found 0: []"),
    ("two-central-banks", {"agents": BASE.agents + (AgentSpec("CB2", "CentralBank"),)},
     "network must contain exactly one CentralBank agent, found 2: ['CB', 'CB2']"),
    ("duplicate-channel", {"channels": BASE.channels + (ChannelSpec("ab", "B", "A", 1),)},
     "duplicate channel id 'ab'"),
    ("self-loop", {"channels": BASE.channels + (ChannelSpec("aa", "A", "A", 5),)},
     "channel 'aa': self-loop on agent 'A'"),
    ("unknown-endpoint", {"channels": BASE.channels + (ChannelSpec("ad", "A", "D", 5),)},
     "channel 'ad': unknown agent 'D'"),
    ("negative-rate", {"channels": BASE.channels + (ChannelSpec("ac", "A", "C", -1),)},
     "channel 'ac': negative rate -1"),
    ("negative-multiplier", {"channels": BASE.channels + (ChannelSpec("ac", "A", "C", 1, Fraction(-1, 2)),)},
     "channel 'ac': negative multiplier -1/2"),
    ("issuance-time", {"issuance": (ScheduledAmount(-1.0, 5),)}, "issuance schedule: negative time -1.0"),
    ("securities-time", {"securities": (ScheduledAmount(-0.5, 5),)},
     "securities schedule: negative time -0.5"),
    ("policy-channel", {"policy": (PolicyAction(1.0, "set_multiplier", "nope", Fraction(2)),)},
     "policy entry: unknown channel 'nope'"),
    ("policy-value", {"policy": (PolicyAction(1.0, "set_rate", "discount_rate", Fraction(-1)),)},
     "policy entry for 'discount_rate': negative value"),
    ("shock-channel", {"shocks": (ShockSpec(1.0, "nope", 5),)}, "shock entry: unknown channel 'nope'"),
    ("figure-channel", {"figures": (FigureSpec("f", channel="nope"),)}, "figure 'f': unknown channel 'nope'"),
    ("figure-agent", {"figures": (FigureSpec("f", stock="D"),)}, "figure 'f': unknown agent 'D'"),
]
WAYS = {
    "constructor": lambda edits: ScenarioSpec(**{**BASE_FIELDS, **edits}),
    "replace": lambda edits: replace(BASE, **edits),
    "with_seed": lambda edits: BASE.with_seed(edits["seed"]),
    "with_extra_policy": lambda edits: BASE.with_extra_policy(edits["policy"]),
    "with_extra_shocks": lambda edits: BASE.with_extra_shocks(edits["shocks"]),
    "scenario_from_dict": lambda edits: scenario_from_dict(document(edits)),
}
ONLY = {"with_seed": "seed", "with_extra_policy": "policy", "with_extra_shocks": "shocks"}


class TestEveryRule:
    """A `ScenarioSpec` checks every scenario rule however it is made, before anything is built."""

    @pytest.mark.parametrize("edits, way, message", [
        pytest.param(edits, way, message, id=f"{rule}-{way}")
        for rule, edits, message in RULES for way in WAYS if way not in ONLY or set(edits) == {ONLY[way]}])
    def test_rejected(self, edits, way, message):
        with pytest.raises(ScenarioError) as caught:
            WAYS[way](edits)
        assert str(caught.value) == message

    @pytest.mark.parametrize("edits", [pytest.param(edits, id=rule)
                                       for rule, edits, _ in RULES[len(EARLIER_RULES):]])
    def test_seed_reported_before_later_rules(self, edits):
        with pytest.raises(ScenarioError, match="^seed must be"):
            replace(BASE, seed=-1, **edits)

    def test_base_is_valid(self):
        assert scenario_from_dict(document({})) == BASE


class TestLibraryNumbers:
    """A library spec holds the floats a scenario file gives, however its numbers were written."""

    @pytest.mark.parametrize("edits", [
        {"term_length": "1"},
        {"term_length": 2},
        {"policy": (PolicyAction("1", "set_rate", "r", Fraction(1)),)},
        {"issuance": (ScheduledAmount("0.5", 5),)},
        {"shocks": (ShockSpec(1, "ab", 5),)},
        {"agents": agent_a(mean_wait="0.5")},
        {"agents": agent_a(mean_wait=1)},
    ], ids=["term-length-str", "term-length-int", "policy-time-str", "issuance-time-str",
            "shock-time-int", "mean-wait-str", "mean-wait-int"])
    def test_held_as_the_file_floats(self, edits):
        spec = replace(BASE, **edits)
        numbers = [spec.term_length, *(a.mean_wait for a in spec.agents),
                   *(e.time for e in (*spec.issuance, *spec.securities, *spec.policy, *spec.shocks))]
        assert all(type(number) is float for number in numbers)
        again = scenario_from_dict(json.loads(spec.to_json()))
        assert again == spec
        assert again.fingerprint() == spec.fingerprint()
        assert run_record(build_network(spec), 2) == run_record(build_network(again), 2)

    @pytest.mark.parametrize("wait", [math.inf, math.nan])
    def test_mean_wait_must_be_finite(self, wait):
        with pytest.raises(ScenarioError) as caught:
            replace(BASE, agents=agent_a(mean_wait=wait))
        assert str(caught.value) == f"agent 'A' mean_wait: expected a finite number, got {wait}"


class TestScheduleOrder:
    def test_entries_run_in_time_order_ties_as_given(self):
        late = PolicyAction(2.5, "set_rate", "r", Fraction(1, 8))
        early = PolicyAction(0.5, "set_rate", "r", Fraction(0))
        tie = PolicyAction(0.5, "set_multiplier", "ab", Fraction(1, 2))
        shocks = ShockSpec(2.0, "ab", 40), ShockSpec(1.0, "bc", -30)
        spec = replace(BASE, policy=(late, early, tie), shocks=shocks)
        in_order = replace(BASE, policy=(early, tie, late), shocks=shocks[::-1])
        state = build_network(spec)
        assert run_record(state, 3) == run_record(build_network(in_order), 3)
        times = [ev.time for ev in state.log]
        assert times == sorted(times)
        assert spec == in_order


class TestShippedScenarios:
    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_file_matches_builder(self, name):
        # The files under scenarios/ are generated from the builders; drift fails here.
        spec = load_scenario(REPO / "scenarios" / f"{name}.json")
        assert spec == BUILTIN_SCENARIOS[name]()

    def test_fingerprint_stable_across_round_trip(self):
        spec = BUILTIN_SCENARIOS["national-5"]()
        again = scenario_from_dict(spec.to_dict())
        assert spec.fingerprint() == again.fingerprint()

    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_fingerprint_worked_out_once_is_the_canonical_hash(self, name):
        def canonical(spec):
            text = json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))
            return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

        spec = BUILTIN_SCENARIOS[name]()
        first = spec.channels[0].id
        variants = [spec, spec.with_seed(spec.seed + 1),
                    spec.with_extra_policy([PolicyAction(1.5, "set_rate", "policy_rate", Fraction(1, 50))]),
                    spec.with_extra_shocks([ShockSpec(2.0, first, 5)])]
        assert len({canonical(v) for v in variants}) == 4
        for variant in variants:
            assert variant.fingerprint() == canonical(variant)
            assert variant.fingerprint() is variant.fingerprint()  # the second call reads it back

    def test_national5_is_balanced(self):
        from moneyflow import build_network

        state = build_network(BUILTIN_SCENARIOS["national-5"]())
        for aid in state.agent_order:
            assert true_imbalance(state, aid) == 0


JSON = json_values()


def entries(keys, **values):
    """Lists of scenario entries: objects over `keys` (some values pinned to plausible ones), or junk."""
    loose = json_values(4)
    entry = st.fixed_dictionaries({}, optional={k: values.get(k, loose) | loose for k in keys})
    return st.lists(entry | loose, max_size=3) | JSON


PAIRS = st.lists(st.lists(st.integers() | st.floats() | JSON, max_size=3) | JSON, max_size=3) | JSON
SCENARIO_DOCS = st.fixed_dictionaries({}, optional={
    "name": JSON,
    "seed": st.integers(0, 10) | JSON,
    "term_length": st.floats() | JSON,
    "agents": entries(("id", "role", "stock", "gain", "mean_wait"),
                      role=st.sampled_from(["CentralBank", "Custom:x"])),
    "channels": entries(("id", "source", "sink", "rate", "multiplier", "adjustable"),
                        rate=st.integers()),
    "issuance_schedule": PAIRS,
    "securities_schedule": PAIRS,
    "policy_schedule": entries(("time", "action", "target", "value"),
                               action=st.sampled_from(["set_multiplier", "set_rate"])),
    "shock_schedule": entries(("time", "channel", "amount"), amount=st.integers()),
    "figures": entries(("name", "channel", "stock")),
    "rates": st.dictionaries(st.text(max_size=4), JSON, max_size=3) | JSON,
}) | JSON


class TestParserFuzz:
    @given(doc=SCENARIO_DOCS)
    @settings(max_examples=200, deadline=None)
    def test_scenario_from_dict_raises_only_scenario_errors(self, doc):
        try:
            scenario_from_dict(doc)
        except ScenarioError:
            pass
