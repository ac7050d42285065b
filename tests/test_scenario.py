"""Scenario parsing, exact rational handling, and shipped scenario files."""

import hashlib
import json
import re
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

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
    FigureSpec,
    PolicyAction,
    ScenarioError,
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

    def test_other_characters_round_trip(self):
        spec = replace(three_agent_cycle(), rates={"rate.1/2;#": Fraction(1, 8)},
                       figures=(FigureSpec("ab:flow-é", channel="ab"),))
        record = run_record(build_network(spec), 2)
        assert record_from_csv(record_to_csv(record)) == record


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
