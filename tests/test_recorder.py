"""Balance sheet compilation, identity verification, and record serialization."""

from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moneyflow import engine, rng
from moneyflow import (
    BUILTIN_SCENARIOS,
    Assignment,
    BalanceSheet,
    PolicyAction,
    Record,
    RecordError,
    ShockSpec,
    build_network,
    inject_shock,
    issue,
    national_5,
    read_record,
    record_terms,
    run,
    run_record,
    settle,
    settle_all,
    three_agent_cycle,
    three_agent_skew,
    two_agent_kernel,
    verify_record,
    write_record,
)
from moneyflow.anticipation import _rejoin_key
from moneyflow.recorder import AgentLine, record_from_csv, record_to_csv, record_to_json
from moneyflow.recorder import record_from_json
from moneyflow.retrieval import apply_assignment
from moneyflow.scenario import AgentSpec, ChannelSpec, FigureSpec, ScenarioError, ScenarioSpec
from moneyflow.scenario import ScheduledAmount
from moneyflow.scenario import rational_str

from conftest import json_values, reference_run, sheets_from_log, tallies_hold, tiny_spec
from test_engine import assert_same_run, oracle_states
from test_pins import LIVE_OFFSETS, LIVE_SPEC, PIN_TERMS, SCENARIO_PINS, boundary_shock_spec

DATA = Path(__file__).parent / "data"
DOCS = Path(__file__).parent.parent / "docs"


def pair_spec(rate_ab=0, rate_ba=0):
    return ScenarioSpec(
        name="pair",
        agents=(
            AgentSpec("CB", "CentralBank"),
            AgentSpec("A", "Custom:t", gain=Fraction(0), mean_wait=0.5),
            AgentSpec("B", "Custom:t", gain=Fraction(0), mean_wait=0.5),
        ),
        channels=(
            ChannelSpec("ab", "A", "B", rate_ab),
            ChannelSpec("ba", "B", "A", rate_ba),
        ),
        figures=(FigureSpec("ab_flow", channel="ab"),),
    )


def hand_driven(rate_ab=0, rate_ba=0):
    """A pair state at time 0 and its sheets, before any hand-made event.

    The agents have zero gain, so running a term changes no rate and moves
    only what the hand-made events and the observer cut move.
    """
    state = build_network(pair_spec(rate_ab, rate_ba))
    return state, record_terms(state)


class TestCompile:
    """Sheets of hand-driven terms, read off the tallies at each cut."""

    def test_empty_term_all_zero(self):
        state, terms = hand_driven()
        next(terms)
        sheet = next(terms)
        for line in sheet.agents.values():
            assert line.inflow == line.outflow == 0
            assert line.closing == line.opening

    def test_single_transfer(self):
        state, terms = hand_driven(rate_ab=60)
        settle(state, "A", "B", 0.5)
        state.channels["ab"].rate = 0  # nothing more accrues before the cut
        sheet = next(terms)
        assert sheet.agents["A"].outflow == 30
        assert sheet.agents["B"].inflow == 30
        assert sheet.figures["ab_flow"] == 30

    def test_three_event_hand_sum(self):
        # Hand oracle: settlements of 30 out of A and 12 back, issuance 100 to CB.
        state, terms = hand_driven(rate_ab=30, rate_ba=12)
        settle(state, "A", "B", 0.5)
        issue(state, 100, 0.6)
        settle(state, "B", "A", 1.0)
        sheet = next(terms)
        assert sheet.agents["A"] == AgentLine(0, 12, 30, -18)
        assert sheet.agents["B"] == AgentLine(0, 30, 12, 18)
        assert sheet.agents["CB"] == AgentLine(0, 100, 0, 100)
        assert sheet.notes_outstanding == 100
        assert verify_record(Record((sheet,))).ok

    def test_retirement_counts_as_outflow(self):
        state, terms = hand_driven()
        issue(state, 100, 0.2)
        issue(state, -40, 0.4)
        sheet = next(terms)
        assert sheet.agents["CB"] == AgentLine(0, 100, 40, 60)
        assert sheet.notes_outstanding == 60
        assert verify_record(Record((sheet,))).ok

    def test_shock_counts_in_totals_not_figures(self):
        state, terms = hand_driven()
        inject_shock(state, "B", 40, 0.3, channel_id="ab")
        sheet = next(terms)
        assert sheet.agents["B"].inflow == 40
        assert sheet.agents["A"].outflow == 40
        assert sheet.figures["ab_flow"] == 0
        assert verify_record(Record((sheet,))).ok

    def test_events_after_a_cut_open_the_next_term(self):
        state, terms = hand_driven()
        first = next(terms)
        state.channels["ab"].rate = 30
        second = next(terms)
        assert first.agents["A"] == AgentLine(0, 0, 0, 0)
        assert second.agents["A"] == AgentLine(0, 0, 30, -30)
        assert [sheet.agents["A"] for sheet in sheets_from_log(state)] == [
            first.agents["A"], second.agents["A"]]


def boundary_kernel(term_length, shocks, gain=Fraction(0)):
    """The 40/28 pair at the given term length, with shocks on `ab` at term boundaries."""
    spec = replace(two_agent_kernel(40, 28, gain=gain), term_length=term_length)
    return spec.with_extra_shocks(ShockSpec(k * term_length, "ab", amount) for k, amount in shocks)


class TestTermBoundaries:
    @given(length=st.floats(min_value=0, max_value=1e300, exclude_min=True),
           k=st.integers(0, 5000))
    @settings(max_examples=500, deadline=None)
    def test_loop_end_equals_the_end_of_a_run_to_it(self, length, k):
        # `record_terms` ends term k at (k + 1) * length; `run` from the
        # boundary k * length to it computes that end as now + horizon.
        now = k * length
        assert now + ((k + 1) * length - now) == (k + 1) * length

    def test_boundary_shock_booked_after_the_cut(self):
        # The shock at 5 * term_length is processed after the term-4 cut, so
        # term 4 closes at the stocks of that cut and term 5 carries it.
        length = 1 / 3
        record = run_record(build_network(boundary_kernel(length, [(5, 50)])), 6)
        term4, term5 = record.sheets[4].agents, record.sheets[5].agents
        assert (term4["A"].closing, term4["B"].closing) == (-20, 20)
        assert (term5["A"].outflow - term5["A"].inflow, term5["B"].closing) == (54, 74)

    @pytest.mark.parametrize("length", [0.1, 0.3, 0.7, 1 / 3])
    def test_closing_stocks_equal_stocks_at_the_cut(self, length):
        # Replayed from the log once the whole log exists, each sheet still
        # closes at the stocks its own cut saw.
        shocks = [(k, 10 * k - 60) for k in range(1, 13)]
        state = build_network(boundary_kernel(length, shocks, gain=Fraction(1)))
        terms = record_terms(state)
        sheets, at_cut = [], []
        for _ in range(13):
            sheets.append(next(terms))
            at_cut.append({aid: agent.stock for aid, agent in state.agents.items()})
        assert sheets_from_log(state) == sheets
        assert [{aid: line.closing for aid, line in sheet.agents.items()}
                for sheet in sheets] == at_cut
        assert verify_record(Record(tuple(sheets))).ok


class TestVerifyIdentities:
    def test_compiled_sheets_pass(self, national5_spec):
        record = run_record(build_network(national5_spec), 3)
        assert verify_record(record).ok

    def test_perturbed_closing_fails_with_discrepancy_one(self, national5_spec):
        record = run_record(build_network(national5_spec), 1)
        sheet = record.sheets[0]
        agents = dict(sheet.agents)
        line = agents["HH"]
        agents["HH"] = AgentLine(line.opening, line.inflow, line.outflow, line.closing + 1)
        tampered = BalanceSheet(sheet.term_index, agents, sheet.notes_outstanding,
                                sheet.securities_outstanding, sheet.rates, sheet.figures)
        report = verify_record(Record((tampered,)))
        assert not report.ok
        assert any(c.discrepancy == 1 for c in report.failures())

    def test_empty_agent_sheet_vacuously_passes(self):
        sheet = BalanceSheet(0, {}, 0, 0, {}, {})
        assert verify_record(Record((sheet,))).ok

    @pytest.mark.parametrize("seed", range(8))
    def test_identities_across_seeds(self, seed, national5_spec):
        record = run_record(build_network(national5_spec.with_seed(seed)), 4)
        assert verify_record(record).ok


class TestSerialization:
    def sample_record(self, n_terms=2):
        return run_record(build_network(tiny_spec(seed=6)), n_terms)

    def test_csv_round_trip(self, tmp_path):
        record = self.sample_record()
        path = tmp_path / "r.csv"
        write_record(record, path, "csv")
        assert read_record(path) == record

    def test_json_round_trip(self, tmp_path):
        record = self.sample_record()
        path = tmp_path / "r.json"
        write_record(record, path, "json")
        assert read_record(path) == record

    def test_csv_keeps_the_record_order_of_rates(self):
        policy = (PolicyAction(0.5, "set_rate", "zeta", Fraction(1, 8)),
                  PolicyAction(0.75, "set_rate", "alpha", Fraction(1, 4)))
        record = run_record(build_network(replace(three_agent_cycle(), policy=policy)), 2)
        text = record_to_csv(record)
        assert " zeta=0.125 alpha=0.25 " in text
        assert record_to_json(record_from_csv(text)) == record_to_json(record)

    def test_empty_default_record_is_header_only(self):
        assert record_to_csv(Record(())) == "term,kind,id,opening,inflow,outflow,closing,aggregates\n"

    def test_golden_file(self):
        record = Record(
            sheets=(BalanceSheet(
                term_index=0,
                agents={"CB": AgentLine(0, 500, 0, 500), "HH": AgentLine(100, 0, 0, 100)},
                notes_outstanding=500,
                securities_outstanding=0,
                rates={"discount_rate": Fraction(1, 40), "securities_interest_rate": Fraction(0)},
                figures={"consumption_flow": 0},
            ),),
            fingerprint="deadbeefdeadbeef",
            term_length=1.0,
            initial_total_stock=100,
        )
        golden = (DATA / "golden_record.csv").read_text(encoding="utf-8")
        assert record_to_csv(record) == golden
        assert record_from_csv(golden) == record

    def test_non_contiguous_terms_rejected(self):
        sheet0 = BalanceSheet(0, {}, 0, 0, {}, {})
        sheet2 = BalanceSheet(2, {}, 0, 0, {}, {})
        with pytest.raises(RecordError, match="contiguous"):
            Record((sheet0, sheet2))

    def test_malformed_csv_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("term,kind,id,opening,inflow,outflow,closing,aggregates\n"
                        "0,agent,A,1,2,3\n", encoding="utf-8")
        with pytest.raises(RecordError, match="line 2"):
            read_record(path)

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  \"format\": \"moneyflow-record\",\n  oops\n}", encoding="utf-8")
        with pytest.raises(RecordError, match="line 3"):
            read_record(path)

    def test_non_string_fingerprint_rejected(self):
        # The JSON writer quotes the fingerprint as a string; a record read
        # from JSON must have one.
        with pytest.raises(RecordError, match="fingerprint: expected str, got 5"):
            record_from_json(json.dumps({"format": "moneyflow-record", "fingerprint": 5}))

    def test_external_csv_with_identities_accepted(self, tmp_path):
        text = ("term,kind,id,opening,inflow,outflow,closing,aggregates\n"
                "0,agent,X,0,7,2,5,\n"
                "0,agent,Y,0,2,7,-5,\n"
                "0,aggregates,,,,,,notes_outstanding=0 government_securities_outstanding=0\n")
        path = tmp_path / "ext.csv"
        path.write_text(text, encoding="utf-8")
        record = read_record(path)
        assert record.sheets[0].agents["X"].closing == 5

    def test_identity_violation_rejected_or_skipped(self, tmp_path):
        text = ("term,kind,id,opening,inflow,outflow,closing,aggregates\n"
                "0,agent,X,0,7,2,6,\n"
                "0,aggregates,,,,,,notes_outstanding=6 government_securities_outstanding=0\n")
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(RecordError, match="identities violated"):
            read_record(path)
        read_record(path, on_identity_violation="skip")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown record format"):
            write_record(Record(()), tmp_path / "x", "yaml")


class TestRecordOfRun:
    def test_compile_of_run_deterministic(self, national5_spec):
        a = run_record(build_network(national5_spec), 3)
        b = run_record(build_network(national5_spec), 3)
        assert a == b
        assert record_to_json(a) == record_to_json(b)

    def test_boundary_cut_flagged_observer(self, national5_spec):
        state = build_network(national5_spec)
        run_record(state, 2)
        cuts = [e for e in state.log if e.kind == "Settlement" and e.payload.get("observer")]
        assert [e.payload["term"] for e in cuts] == [0, 1]

    def test_must_start_on_a_term_boundary(self):
        state = build_network(tiny_spec(seed=3))
        run(state, 0.4)
        with pytest.raises(ValueError, match="a record starts at time 0, but the state is at 0.4"):
            run_record(state, 1)

    def test_must_start_at_time_zero(self):
        # A record starts from a fresh state, not from a later boundary.
        state = build_network(tiny_spec(seed=3))
        run_record(state, 2)
        with pytest.raises(ValueError, match="a record starts at time 0, but the state is at 2.0"):
            run_record(state, 1)


PINNED_RUNS = {
    **{f"{name}-{seed}": (BUILTIN_SCENARIOS[name]().with_seed(seed), None, PIN_TERMS)
       for name, seed in sorted(SCENARIO_PINS)},
    "boundary-shocks": (boundary_shock_spec(), None, 8),
    "live-dynamics": (LIVE_SPEC, LIVE_OFFSETS, PIN_TERMS),
}


@st.composite
def disturbed_runs(draw, lengths=(0.1, 1 / 3, 0.5, 0.75), max_terms=5):
    """A built-in scenario at another term length with every kind of money move.

    Shocks land on term boundaries, multipliers change mid-term, a rate the
    scenario never declared is set, notes are issued and partly retired,
    agents start off balance under overridden gains, and a second flow
    figure watches a channel that already has one.
    """
    spec = draw(st.sampled_from([national_5, three_agent_cycle, three_agent_skew,
                                 two_agent_kernel]))()
    length = draw(st.sampled_from(lengths))
    n_terms = draw(st.integers(1, max_terms))
    channels = st.sampled_from([c.id for c in spec.channels])
    terms = st.integers(0, n_terms - 1)
    issued = draw(st.integers(1, 500))
    issuance = (*spec.issuance, ScheduledAmount(draw(terms) * length, issued),
                ScheduledAmount((n_terms - 0.5) * length, -draw(st.integers(0, issued))))
    first = spec.figures[0]
    spec = replace(spec, term_length=length, seed=draw(st.integers(0, 2 ** 16)),
                   issuance=tuple(sorted(issuance, key=lambda e: e.time)),
                   figures=(*spec.figures, FigureSpec("again_flow", channel=first.channel),
                            FigureSpec("cb_stock", stock="CB")))
    spec = spec.with_extra_shocks(draw(st.lists(st.builds(
        lambda k, cid, amount: ShockSpec(k * length, cid, amount),
        st.integers(1, n_terms), channels, st.integers(-80, 80)), max_size=3)))
    spec = spec.with_extra_policy([
        *draw(st.lists(st.builds(
            lambda k, cid, value: PolicyAction((k + 0.5) * length, "set_multiplier", cid, value),
            terms, channels, st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(3, 2)])),
            max_size=2)),
        PolicyAction(draw(terms) * length + 0.01, "set_rate", "policy_rate", Fraction(1, 50)),
    ])
    state = build_network(spec)
    movers = [a.id for a in spec.agents if not a.continuity_exempt]
    apply_assignment(state, Assignment(
        offsets={aid: draw(st.sampled_from([0, 7, 30])) for aid in movers},
        gain_overrides={aid: draw(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(3)]))
                        for aid in movers}))
    return state, n_terms


class TestLogOracle:
    """The sheets read off the tallies equal the sheets replayed from the log."""

    @pytest.mark.parametrize("name", sorted(PINNED_RUNS))
    def test_pinned_runs(self, name):
        spec, assignment, n_terms = PINNED_RUNS[name]
        state = build_network(spec)
        if assignment is not None:
            apply_assignment(state, assignment)
        record = run_record(state, n_terms)
        assert sheets_from_log(state) == list(record.sheets)
        assert tallies_hold(state)

    @given(run=disturbed_runs())
    @settings(max_examples=60, deadline=None)
    def test_disturbed_runs(self, run):
        state, n_terms = run
        record = run_record(state, n_terms)
        assert sheets_from_log(state) == list(record.sheets)
        assert tallies_hold(state)
        assert verify_record(record).ok
        assert all("policy_rate" in sheet.rates for sheet in record.sheets[n_terms - 1:])


RECORD_LENGTHS = (1.0, 0.1, 1 / 3, 0.75, 2.5)
TAX_POLICY = (PolicyAction(10.0, "set_multiplier", "tax_hh", Fraction(3, 10)),
              PolicyAction(10.0, "set_multiplier", "tax_corp", Fraction(3, 10)))


def per_term_reference(ref, n_terms, checkpoints=None):
    """The first `n_terms` terms of `ref`, one `run` to each term boundary and
    the observer cut there, so that every term starts a fresh event loop."""
    for term in range(n_terms):
        if checkpoints is not None:
            checkpoints.append(ref.clone())
            checkpoints[-1].log = []
        run(ref, (term + 1) * ref.spec.term_length - ref.now)
        settle_all(ref, ref.now, term=term)


def record_both_ways(state, n_terms):
    """`run_record` on the state and the per-term reference on a clone; they must agree."""
    ref = state.clone()
    checkpoints, ref_checkpoints = [], []
    record = run_record(state, n_terms, checkpoints)
    per_term_reference(ref, n_terms, ref_checkpoints)
    assert list(record.sheets) == sheets_from_log(ref)
    run(state, 0)  # a dormant agent's clock lags until a `run` brings it up to date
    assert_same_run(state, ref)
    assert checkpoints == ref_checkpoints


class TestOneLoopOracle:
    """`record_terms` is one event loop with the cuts inside it: dormant
    agents stay dormant across cuts, and the sheets, log, final state and
    checkpoints are those of a fresh `run` to each term boundary."""

    @given(run=disturbed_runs(lengths=RECORD_LENGTHS, max_terms=8))
    @settings(max_examples=80, deadline=None)
    def test_builtin_scenarios(self, run):
        record_both_ways(*run)

    @given(state=oracle_states(lengths=RECORD_LENGTHS), n_terms=st.integers(1, 8))
    @settings(max_examples=150, deadline=None)
    def test_generated_scenarios(self, state, n_terms):
        record_both_ways(state, n_terms)

    @given(run=disturbed_runs(lengths=RECORD_LENGTHS, max_terms=8), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_replays_stopped_early(self, run, data):
        # As a shock replay runs: from the checkpoint at time 0 under extra
        # shocks, and stopped after j sheets.
        state, n_terms = run
        length = state.spec.term_length
        checkpoints = []
        run_record(state, n_terms, checkpoints)
        assert [c.now for c in checkpoints] == [k * length for k in range(n_terms)]
        assert all(c.log == [] for c in checkpoints)
        taken = [c.clone() for c in checkpoints]
        j = data.draw(st.integers(1, n_terms))
        replay = checkpoints[0].clone()
        replay.spec = replay.spec.with_extra_shocks(data.draw(st.lists(st.builds(
            ShockSpec, st.floats(0, n_terms * length),
            st.sampled_from(sorted(replay.channels)), st.integers(-80, 80)), max_size=3)))
        ref = replay.clone()
        terms = record_terms(replay)
        sheets = [next(terms) for _ in range(j)]
        per_term_reference(ref, j)
        assert sheets == sheets_from_log(ref)
        engine.run(replay, 0)
        assert_same_run(replay, ref)
        assert _rejoin_key(replay) == _rejoin_key(ref)
        assert checkpoints == taken  # the checkpoints stay as taken

    @pytest.mark.parametrize("seed", [3, 8])
    def test_no_deficit_read_once_the_tax_change_settles(self, monkeypatch, seed):
        # The last update after the tax change of t = 10 comes at about 14;
        # from then on no cut refreshes a stale snapshot, so no agent wakes.
        woken = []
        deficit = engine.observed_deficit

        def counted(state, agent_id):
            woken.append(state.agents[agent_id].next_time)
            return deficit(state, agent_id)

        monkeypatch.setattr(engine, "observed_deficit", counted)
        spec = national_5().with_extra_policy(TAX_POLICY).with_seed(seed)
        state = build_network(spec)
        run_record(state, 200)
        assert 0 < max(woken) < 20
        assert len(woken) < 100

    # The first eight national-5 seeds of the simulate-n5 benchmark workload.
    @pytest.mark.parametrize("seed", [1, 3, 5, 8, 10, 11, 12, 16])
    def test_dormant_agents_draw_no_wake_times(self, monkeypatch, seed):
        # Consuming every dormant agent's wakes at each term end made about
        # 4,000 draws here; deferred until it rejoins, about 230.
        draws = []
        exponential = rng.exponential

        def counted(*args):
            draws.append(args)
            return exponential(*args)

        monkeypatch.setattr(rng, "exponential", counted)
        run_record(build_network(national_5().with_extra_policy(TAX_POLICY).with_seed(seed)), 200)
        assert len(draws) < 400

    def test_run_leaves_every_clock_caught_up(self):
        spec = national_5().with_extra_policy(TAX_POLICY)
        state = build_network(spec)
        ref = state.clone()
        run_record(state, 200)
        assert any(a.next_time < state.now for a in state.agents.values())
        per_term_reference(ref, 200)
        assert all(a.next_time >= ref.now for a in ref.agents.values())
        run(state, 0)
        assert_same_run(state, ref)

    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_every_agent_asleep(self, seed):
        # The balanced pair goes dormant at its first wakes, and the central
        # bank sleeps until each issuance entry: one on the term end t = 2,
        # one inside term 3, and two on wakes of its own in term 4, the first
        # reached from sleep and the second from the wake before it. For most
        # of the run no agent is in the scan.
        spec = replace(pair_spec(5, 5), seed=seed)
        bank = build_network(spec).agents["CB"]
        wakes, n = [bank.next_time], 0
        while len([w for w in wakes if w > 4.0]) < 3:
            n += 1
            wakes.append(wakes[-1] + rng.exponential(bank.mean_wait, bank.event_key, n))
        first, _, third = [w for w in wakes if w > 4.0]
        assert third < 5.0
        spec = replace(spec, issuance=(ScheduledAmount(2.0, 30), ScheduledAmount(3.5, 20),
                                       ScheduledAmount(first, 10), ScheduledAmount(third, 5)))
        state = build_network(spec)
        ref = state.clone()
        record_both_ways(state, 6)
        for term in range(6):  # every wake scanned
            reference_run(ref, (term + 1) * spec.term_length - ref.now)
            settle_all(ref, ref.now, term=term)
        assert_same_run(state, ref)
        updates = [(ev.time, ev.payload) for ev in state.log if ev.kind == "AgentUpdate"]
        assert [payload for _, payload in updates] == [
            {"agent": "CB", "exempt": True, "issued": [amount]} for amount in (30, 20, 10, 5)]
        assert 2.0 <= updates[0][0] < 3.0 and 3.5 <= updates[1][0] < 4.0
        assert [t for t, _ in updates[2:]] == [first, third]


def full_cut_reference(ref, terms, checkpoints=None):
    """`per_term_reference` through the given `terms`, with every observer cut
    a full one: the state forgets its last cut before each, so none replays."""
    for term in terms:
        if checkpoints is not None:
            checkpoints.append(ref.clone())
            checkpoints[-1].log = []
        run(ref, (term + 1) * ref.spec.term_length - ref.now)
        ref._last_cut = None
        settle_all(ref, ref.now, term=term)


def count_full_cuts(monkeypatch, state):
    """The times of `state`'s observer cuts made channel by channel, listed as they happen."""
    full = []
    settle_channels = engine._settle_channels

    def counted(cut_state, channel_ids, time):
        if cut_state is state and channel_ids is state.channel_order:
            full.append(time)
        return settle_channels(cut_state, channel_ids, time)

    monkeypatch.setattr(engine, "_settle_channels", counted)
    return full


def taxed(value=Fraction(3, 10), at=2.0):
    return national_5().with_extra_policy(
        [PolicyAction(at, "set_multiplier", cid, value) for cid in ("tax_hh", "tax_corp")])


def fractional_pair():
    """A balanced pair, so no agent acts and nothing is logged between cuts,
    on two channels whose piece per term is never whole at any length of
    `RECORD_LENGTHS`, so their pots cycle, and two whose piece is whole at
    lengths 1, 0.75 and 2.5."""
    return ScenarioSpec(
        name="fractional",
        agents=(AgentSpec("CB", "CentralBank"),
                AgentSpec("A", "Custom:t", mean_wait=0.5),
                AgentSpec("B", "Custom:t", mean_wait=0.5)),
        channels=(ChannelSpec("ab", "A", "B", 10, multiplier=Fraction(1, 3)),
                  ChannelSpec("ba", "B", "A", 10, multiplier=Fraction(1, 3)),
                  ChannelSpec("ab_whole", "A", "B", 12),
                  ChannelSpec("ba_whole", "B", "A", 12)),
    )


def dyadic_pair():
    """Agents that never adjust on channels so fast that every piece is whole
    over any interval between two float times below 64 with a denominator up
    to 2**60: every cut leaves its pots as it found them, and only a change of
    interval (the float times of terms of length 0.1 or 1/3) or an event
    stops the next from replaying it. The pair stays balanced, so no agent
    acts; late items of every kind touch it: multiplier changes, shocks of
    which one moves nothing, a rate set, and notes issued and retired."""
    return ScenarioSpec(
        name="dyadic",
        agents=(AgentSpec("CB", "CentralBank"),
                AgentSpec("A", "Custom:t", gain=Fraction(0), mean_wait=0.5),
                AgentSpec("B", "Custom:t", gain=Fraction(0), mean_wait=0.5)),
        channels=(ChannelSpec("ab", "A", "B", 2 ** 64),
                  ChannelSpec("ba", "B", "A", 2 ** 66, multiplier=Fraction(1, 4))),
        issuance=(ScheduledAmount(24.5, 500), ScheduledAmount(31.5, -300)),
        securities=(ScheduledAmount(33.5, 700),),
        policy=(PolicyAction(14.5, "set_multiplier", "ab", Fraction(1, 2)),
                PolicyAction(14.5, "set_multiplier", "ba", Fraction(1, 8)),
                PolicyAction(26.5, "set_rate", "discount_rate", Fraction(1, 20))),
        shocks=(ShockSpec(18.5, "ba", 40), ShockSpec(21.0, "ab", 0)),
    )


# Each a scenario with quiet stretches, by name; times are in terms, so that
# every term length has them.
QUIET_CASES = {
    "tax-3/10": lambda: taxed(),
    "tax-2/7": lambda: taxed(Fraction(2, 7)),
    "fractional": fractional_pair,
    "dyadic": dyadic_pair,
    "late-policies": lambda: taxed().with_extra_policy([
        PolicyAction(20.5, "set_multiplier", "bond", Fraction(3, 2)),
        PolicyAction(28.5, "set_rate", "discount_rate", Fraction(1, 20)),
        PolicyAction(34.5, "set_multiplier", "investment", Fraction(2, 7))]),
    "late-shocks": lambda: taxed().with_extra_shocks([
        ShockSpec(20.5, "wages", 40), ShockSpec(28.5, "savings", 0), ShockSpec(34.0, "bond", -25)]),
    "late-money": lambda: replace(taxed(), issuance=(
        ScheduledAmount(0.0, 2000), ScheduledAmount(20.5, 500), ScheduledAmount(28.5, -300)),
        securities=(ScheduledAmount(0.0, 3000), ScheduledAmount(34.5, 700))),
}


def quiet_spec(name, length):
    """`QUIET_CASES[name]` at term length `length`, its scheduled times scaled to it."""
    spec = QUIET_CASES[name]()

    def scale(items):
        return tuple(item._replace(time=item.time * length) for item in items)

    return replace(spec, term_length=length, issuance=scale(spec.issuance),
                   securities=scale(spec.securities), policy=scale(spec.policy),
                   shocks=scale(spec.shocks))


QUIET_TERMS = 45  # the last scheduled item comes in term 34


class TestQuietCutReplay:
    """An observer cut after a quiet one replays it: the sheets, log, state
    and checkpoints are those of cuts that each go channel by channel."""

    @pytest.mark.parametrize("length", RECORD_LENGTHS)
    @pytest.mark.parametrize("name", sorted(QUIET_CASES))
    def test_matches_full_cuts(self, monkeypatch, name, length):
        state = build_network(quiet_spec(name, length))
        ref = state.clone()
        full = count_full_cuts(monkeypatch, state)
        checkpoints, ref_checkpoints = [], []
        record = run_record(state, QUIET_TERMS, checkpoints)
        full_cut_reference(ref, range(QUIET_TERMS), ref_checkpoints)
        assert list(record.sheets) == sheets_from_log(ref)
        run(state, 0)
        assert_same_run(state, ref)
        assert checkpoints == ref_checkpoints
        replays = QUIET_TERMS - len(full)
        if name in ("fractional", "tax-2/7"):
            assert replays == 0  # a piece is never whole, so its pot cycles
        elif name == "dyadic" or length == 1.0:
            assert replays > 0

    @pytest.mark.parametrize("length", RECORD_LENGTHS)
    def test_clone_in_a_quiet_stretch(self, monkeypatch, length):
        # Cloned after term 29, amid replays at length 1: the clone's first
        # cut is a full one, and the state and the clone go on alike.
        state = build_network(quiet_spec("dyadic", length))
        terms = record_terms(state)
        for _ in range(30):
            next(terms)
        clone, ref = state.clone(), state.clone()
        full = count_full_cuts(monkeypatch, clone)
        sheets = [next(terms) for _ in range(30, QUIET_TERMS)]
        for term in range(30, QUIET_TERMS):
            run(clone, (term + 1) * length - clone.now)
            settle_all(clone, clone.now, term=term)
        full_cut_reference(ref, range(30, QUIET_TERMS))
        assert sheets == sheets_from_log(ref)[-len(sheets):]
        run(state, 0)
        assert_same_run(state, ref)
        assert_same_run(clone, ref)
        assert full[0] == 31 * length

    def test_cuts_at_times_not_past_the_last_go_in_full(self):
        # By hand, cuts may come at any times; ones at or before the last cut
        # accrue nothing and leave `accrued_until` where it is.
        state, _ = hand_driven(rate_ab=4, rate_ba=8)
        ref = state.clone()
        for term, time in enumerate([3.0, 2.0, 1.0, 1.0, 4.0, 5.0, 6.0]):
            settle_all(state, time, term=term)
            ref._last_cut = None
            settle_all(ref, time, term=term)
            assert_same_run(state, ref)

    # The first eight national-5 seeds of the simulate-n5 benchmark workload.
    @pytest.mark.parametrize("seed", [1, 3, 5, 8, 10, 11, 12, 16])
    def test_few_full_cuts_once_the_tax_change_settles(self, monkeypatch, seed):
        # Every cut went channel by channel here; with the replay, 7 or 8 of 200 do.
        state = build_network(national_5().with_extra_policy(TAX_POLICY).with_seed(seed))
        full = count_full_cuts(monkeypatch, state)
        run_record(state, 200)
        assert len(full) <= 20
        cuts = [ev.payload["amounts"] for ev in state.log if ev.payload.get("observer")]
        assert len(cuts) == 200
        assert len({id(amounts) for amounts in cuts}) == 200  # each cut logs its own list


class TestFigures:
    def test_two_figures_on_one_channel_both_recorded(self):
        spec = three_agent_cycle()
        spec = replace(spec, figures=(*spec.figures, FigureSpec("ab_again", channel="ab")))
        sheet = run_record(build_network(spec), 1).sheets[0]
        assert list(sheet.figures) == ["ab_flow", "bc_flow", "ca_flow", "ab_again"]
        assert sheet.figures["ab_again"] == sheet.figures["ab_flow"] == 300

    @pytest.mark.parametrize("second", [FigureSpec("ab_flow", stock="A"),
                                        FigureSpec("ab_flow", channel="bc")])
    def test_repeated_figure_name_rejected(self, second):
        spec = three_agent_cycle()
        with pytest.raises(ScenarioError, match="figure name 'ab_flow' is used more than once"):
            replace(spec, figures=(*spec.figures, second))


AGENT_COLUMNS = ("opening", "inflow", "outflow", "closing")
JSON = json_values()
SHEET_DOCS = st.fixed_dictionaries({}, optional={
    "term_index": st.integers(0, 2) | JSON,
    "agents": st.dictionaries(st.text(max_size=3), st.fixed_dictionaries(
        {}, optional={key: st.integers() | JSON for key in AGENT_COLUMNS}) | JSON, max_size=3) | JSON,
    "notes_outstanding": st.integers() | JSON,
    "government_securities_outstanding": st.integers() | JSON,
    "rates": st.dictionaries(st.text(max_size=4), JSON, max_size=3) | JSON,
    "figures": st.dictionaries(st.text(max_size=4), st.integers() | JSON, max_size=3) | JSON,
})
RECORD_DOCS = st.fixed_dictionaries({"format": st.just("moneyflow-record")}, optional={
    "sheets": st.lists(SHEET_DOCS | JSON, max_size=3) | JSON,
    "fingerprint": JSON,
    "term_length": JSON,
    "initial_total_stock": st.integers() | JSON,
})
CELLS = st.text(alphabet="0123456789-./=ex ", max_size=6)
CSV_ROWS = st.tuples(st.integers(-1, 2).map(str) | CELLS, st.sampled_from(["agent", "aggregates", "x"]),
                     *[CELLS] * 5, st.lists(st.tuples(CELLS, CELLS).map("=".join), max_size=3).map(" ".join)
                     ).map(",".join)
CSV_LINES = st.just("term,kind,id,opening,inflow,outflow,closing,aggregates") | CSV_ROWS \
    | st.tuples(st.sampled_from(["# term_length=", "# initial_total_stock=", "# x"]), CELLS).map("".join) \
    | st.text(max_size=20)


@st.composite
def csv_with_copied_rows(draw):
    """Fuzzed or written CSV lines, some followed by copies of them under a new term cell."""
    lines = draw(st.lists(CSV_LINES, max_size=8)
                 | readable_records().map(lambda record: record_to_csv(record).splitlines()))
    for _ in range(draw(st.integers(0, 6)) if lines else 0):
        source = draw(st.integers(0, len(lines) - 1))
        term = draw(st.integers(-1, 3).map(str) | CELLS)
        lines.insert(draw(st.integers(source + 1, len(lines))), f"{term},{lines[source].partition(',')[2]}")
    return "\n".join(lines)


def parses_or_rejects(parse, text):
    """`parse` either returns a record whose identities can be checked, or raises a parse error."""
    try:
        record = parse(text)
    except (RecordError, ScenarioError):
        return
    verify_record(record)


class TestParserFuzz:
    @given(text=RECORD_DOCS.map(json.dumps) | JSON.map(json.dumps) | st.text(max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_record_from_json_raises_only_parse_errors(self, text):
        parses_or_rejects(record_from_json, text)

    @given(text=st.lists(CSV_LINES, max_size=8).map("\n".join))
    @settings(max_examples=200, deadline=None)
    def test_record_from_csv_raises_only_parse_errors(self, text):
        parses_or_rejects(record_from_csv, text)

    @given(text=csv_with_copied_rows())
    @settings(max_examples=200, deadline=None)
    def test_copied_rows_raise_only_parse_errors(self, text):
        parses_or_rejects(record_from_csv, text)


# ---------------------------------------------------------------------------
# The serializers against the implementations they replaced
# ---------------------------------------------------------------------------

def loop_rational_str(value: Fraction) -> str:
    """`rational_str` as first written: scale the Fraction by 10 until it is whole."""
    den = value.denominator
    d = den
    for p in (2, 5):
        while d % p == 0:
            d //= p
    if d != 1:
        return f"{value.numerator}/{den}"
    digits = 0
    scaled = value
    while scaled.denominator != 1:
        scaled *= 10
        digits += 1
    units = scaled.numerator
    if digits == 0:
        return str(units)
    sign = "-" if units < 0 else ""
    text = str(abs(units)).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def dumped_json(record: Record) -> str:
    """`record_to_json` as first written: build the document, then `json.dumps` it."""
    doc = {
        "format": "moneyflow-record",
        "version": 1,
        "fingerprint": record.fingerprint,
        "term_length": record.term_length,
        "initial_total_stock": record.initial_total_stock,
        "sheets": [
            {
                "term_index": sheet.term_index,
                "agents": {
                    aid: {"opening": line.opening, "inflow": line.inflow,
                          "outflow": line.outflow, "closing": line.closing}
                    for aid, line in sheet.agents.items()
                },
                "notes_outstanding": sheet.notes_outstanding,
                "government_securities_outstanding": sheet.securities_outstanding,
                "rates": {k: loop_rational_str(v) for k, v in sheet.rates.items()},
                "figures": dict(sheet.figures),
            }
            for sheet in record.sheets
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def dumped_csv(record: Record) -> str:
    """`record_to_csv` as written before quiet terms reused their rows: every line afresh."""
    lines = []
    if record.fingerprint or record.term_length != 1.0 or record.initial_total_stock != 0:
        lines += ["# moneyflow-record v1", f"# fingerprint={record.fingerprint}",
                  f"# term_length={record.term_length!r}",
                  f"# initial_total_stock={record.initial_total_stock}"]
    lines.append("term,kind,id,opening,inflow,outflow,closing,aggregates")
    for sheet in record.sheets:
        for aid, line in sheet.agents.items():
            lines.append(f"{sheet.term_index},agent,{aid},{line.opening},{line.inflow},"
                         f"{line.outflow},{line.closing},")
        pairs = [f"notes_outstanding={sheet.notes_outstanding}",
                 f"government_securities_outstanding={sheet.securities_outstanding}"]
        rate_names = ["discount_rate", "securities_interest_rate"]
        rate_names += [k for k in sheet.rates if k not in rate_names]
        for name in rate_names:
            text = loop_rational_str(sheet.rates.get(name, Fraction(0)))
            pairs.append(f"{name}={text}" if "." in text or "/" in text else f"{name}={text}.0")
        pairs += [f"{name}={value}" for name, value in sheet.figures.items()]
        lines.append(f"{sheet.term_index},aggregates,,,,,,{' '.join(pairs)}")
    return "\n".join(lines) + "\n"


NAMES = st.text(max_size=4) | st.sampled_from(['"', "\\", 'a"b', "caf\u00e9", "\u2603", "\n", "\x7f"])
DECIMAL_RATIONALS = st.builds(lambda n, a, b: Fraction(n, 2 ** a * 5 ** b),
                              st.integers(-10 ** 9, 10 ** 9), st.integers(0, 12), st.integers(0, 12))
RATIONALS = DECIMAL_RATIONALS | st.builds(lambda n, a, b, d: Fraction(n, 2 ** a * 5 ** b * d),
                                          st.integers(-10 ** 6, 10 ** 6), st.integers(0, 4),
                                          st.integers(0, 4), st.sampled_from([3, 7, 9, 11, 13 ** 3]))
AGENT_LINES = st.builds(AgentLine, st.integers(), st.integers(), st.integers(), st.integers())


@st.composite
def records(draw):
    sheets = tuple(
        BalanceSheet(term, draw(st.dictionaries(NAMES, AGENT_LINES, max_size=3)),
                     draw(st.integers()), draw(st.integers()),
                     draw(st.dictionaries(NAMES, RATIONALS, max_size=3)),
                     draw(st.dictionaries(NAMES, st.integers(), max_size=3)))
        for term in range(draw(st.integers(0, 3))))
    return Record(sheets, draw(NAMES), draw(st.floats(allow_nan=False, allow_infinity=False)),
                  draw(st.integers()))


class TestSerializerOracles:
    @given(value=RATIONALS)
    @settings(max_examples=500, deadline=None)
    def test_rational_str_matches_the_loop(self, value):
        assert rational_str(value) == loop_rational_str(value)

    @given(record=records())
    @settings(max_examples=300, deadline=None)
    def test_json_matches_json_dumps(self, record):
        assert record_to_json(record) == dumped_json(record)

    @pytest.mark.parametrize("record", [
        Record(()),
        Record((BalanceSheet(0, {}, 0, 0, {}, {}),)),
        Record((BalanceSheet(0, {'q"\\u00e9': AgentLine(-1, 0, 2, -3)}, -4, 0, {}, {"f": -5}),),
               fingerprint="caf\u00e9", term_length=1 / 3, initial_total_stock=-2),
    ], ids=["no-sheets", "empty-sheet", "escapes-and-negatives"])
    def test_json_edge_cases(self, record):
        assert record_to_json(record) == dumped_json(record)
        assert record_from_json(record_to_json(record)) == record

    def test_docs_example_is_the_writer_layout(self):
        text = (DOCS / "record-format.md").read_text(encoding="utf-8")
        example = text.split("```json\n", 1)[1].split("```", 1)[0]
        assert record_to_json(record_from_json(example)) == example


class TestCsvRowMessages:
    """Malformed rows name their line and column exactly as before the int() fast path."""

    HEADER = "term,kind,id,opening,inflow,outflow,closing,aggregates\n"
    # A good term 0, whose rows the cases below repeat under another term cell.
    TERM_0 = "0,agent,A,1,2,3,4,\n0,agent,B,1,2,3,4,\n0,aggregates,,,,,,notes_outstanding=0\n"

    @pytest.mark.parametrize("rows,message", [
        ("x,agent,A,1,2,3,4,", "line 2 column 1: expected integer, got 'x'"),
        ("0,agent,A,,2,3,4,", "line 2 column 4: expected integer, got ''"),
        ("0,agent,A,1,x,3,4,", "line 2 column 5: expected integer, got 'x'"),
        ("0,agent,A,1,2,3.5,4,", "line 2 column 6: expected integer, got '3.5'"),
        ("0,agent,A,1,2,3,4e0,", "line 2 column 7: expected integer, got '4e0'"),
        ("0,agent,A,1,2,x,y,", "line 2 column 6: expected integer, got 'x'"),
        ("0,agent,,1,x,3,4,", "line 2 column 3: agent row needs an id"),
        ("0,agent,A,1,2,3", "line 2: expected 8 columns, found 6"),
        ("0,agent,A,1,2,3,4,\n1,agent,B,1,2,3,4,", "line 3: unexpected term 1 inside term 0 block"),
        ("0,bogus,A,1,2,3,4,", "line 2 column 2: unknown row kind 'bogus'"),
        ("0,aggregates,,,,,,notes_outstanding=x", "line 2 notes_outstanding: expected integer, got 'x'"),
        ("0,aggregates,,,,,,flow=1.5x", "line 2 flow: cannot parse rational '1.5x'"),
        ("0,aggregates,,,,,,flow=2 bad", "line 2 column 8: malformed aggregate 'bad'"),
        ("0,agent,A,1,2,3,4,", "term 0: agent rows without a closing aggregates row"),
        ("0,agent,A,1,2,3,4,\n0,agent,A,1,2,3,4,", "line 3 column 3: agent 'A' repeated in term 0"),
        ("0,agent,A,1,2,3,0, closing:A=5",
         "line 2 column 8: agent row holds ' closing:A=5', where it must be empty"),
        ("0,agent,A,1,2,3,0,\n0,aggregates,,,,,,flow=2 closing:A=5",
         "line 3 column 8: aggregate 'closing:A' has the name of the closing figure of agent 'A'"),
        ("0,agent,A,1,2,3,0,\n0,aggregates,,,,,,outflow:A=1/2",
         "line 3 column 8: aggregate 'outflow:A' has the name of the outflow figure of agent 'A'"),
        ("0,agent,A,1,2,3,4,\n0,aggregates,X,1,2,3,4,notes_outstanding=0",
         "line 3 column 3: aggregates row holds 'X', where it must be empty"),
        ("0,aggregates,,,,7,,", "line 2 column 6: aggregates row holds '7', where it must be empty"),
        ("0,aggregates,,,,,,\n1,aggregates,,,,,0,",
         "line 3 column 7: aggregates row holds '0', where it must be empty"),
        (TERM_0 + "x,agent,A,1,2,3,4,", "line 5 column 1: expected integer, got 'x'"),
        (TERM_0 + "1,agent,A,1,2,3,4,\n2,agent,B,1,2,3,4,",
         "line 6: unexpected term 2 inside term 1 block"),
        (TERM_0 + "1,agent,A,1,2,3,4,\n0,aggregates,,,,,,notes_outstanding=0",
         "line 6: unexpected term 0 inside term 1 block"),
        (TERM_0 + "1,agent,B,1,2,3,4,\n1,agent,A,1,2,3,4,\n1,agent,B,1,2,3,4,",
         "line 7 column 3: agent 'B' repeated in term 1"),
        (TERM_0 + "1,agent,B,1,2,3,4,\n1,aggregates,,,,,,notes_outstanding=0\n2,agent,B,1,2,3,4,\n"
         "2,agent,B,1,2,3,4,", "line 8 column 3: agent 'B' repeated in term 2"),
        (TERM_0 + "1,agent,A,1,2,3,4,\n1,agent,A,1,2,3,4, x=1",
         "line 6 column 3: agent 'A' repeated in term 1"),
    ])
    def test_exact_messages(self, rows, message):
        with pytest.raises(RecordError) as info:
            record_from_csv(self.HEADER + rows + "\n")
        assert str(info.value) == message

    def test_agent_key_of_no_agent_of_the_sheet_is_an_aggregate(self):
        record = record_from_csv(self.HEADER + "0,agent,A,1,2,3,0,\n"
                                 "0,aggregates,,,,,,closing:B=5 total:A=1 closing=2\n")
        assert record.sheets[0].figures == {"closing:B": 5, "total:A": 1, "closing": 2}

    def test_bad_term_length_header(self):
        with pytest.raises(RecordError, match="line 2: term_length: expected a finite number"):
            record_from_csv("# moneyflow-record v1\n# term_length=1.5x\n" + self.HEADER)

    @pytest.mark.parametrize("length", ["-1", "0", "-0.0"])
    def test_term_length_header_must_be_positive(self, length):
        with pytest.raises(RecordError, match="line 2: term_length: must be positive"):
            record_from_csv(f"# moneyflow-record v1\n# term_length={length}\n" + self.HEADER)


class TestJsonFieldErrors:
    """The JSON reader's number fields fail with RecordError too."""

    def document(self, **sheet_fields):
        sheet = {"term_index": 0, "agents": {}, "rates": {}, "figures": {}, **sheet_fields}
        return {"format": "moneyflow-record", "version": 1, "sheets": [sheet]}

    def test_bad_rate(self):
        text = json.dumps(self.document(rates={"discount_rate": "1.5x"}))
        with pytest.raises(RecordError, match="sheet 0 rate discount_rate: cannot parse rational '1.5x'"):
            record_from_json(text)

    def test_rate_of_the_wrong_type(self):
        text = json.dumps(self.document(rates={"discount_rate": [1]}))
        with pytest.raises(RecordError, match="cannot parse rational from list"):
            record_from_json(text)

    @pytest.mark.parametrize("field,value", [("figures", 3), ("rates", "1/2")])
    def test_aggregate_named_like_an_agent_figure(self, field, value):
        line = {"opening": 0, "inflow": 0, "outflow": 0, "closing": 0}
        text = json.dumps(self.document(agents={"A": line, "B": line}, **{field: {"inflow:B": value}}))
        with pytest.raises(RecordError) as info:
            record_from_json(text)
        assert str(info.value) == ("sheet 0: aggregate 'inflow:B' has the name of the inflow "
                                   "figure of agent 'B'")

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc.update(sheet=[]), "record: unknown key 'sheet'"),
        (lambda doc: doc["sheets"][0].update(figurs={"flow": 5}), "sheet 0: unknown key 'figurs'"),
        (lambda doc: doc["sheets"][0]["agents"]["A"].update(closng=5),
         "sheet 0 agent 'A': unknown key 'closng'"),
    ], ids=["document", "sheet", "agent"])
    def test_unknown_key_rejected(self, edit, message):
        # A misspelt key would otherwise be dropped and its value never read.
        doc = self.document(agents={"A": {"opening": 0, "inflow": 0, "outflow": 0, "closing": 0}})
        edit(doc)
        with pytest.raises(RecordError) as info:
            record_from_json(json.dumps(doc))
        assert str(info.value) == message

    def test_bad_term_length(self):
        text = json.dumps({**self.document(), "term_length": "abc"})
        with pytest.raises(RecordError, match="term_length: expected a finite number"):
            record_from_json(text)

    @pytest.mark.parametrize("length", [-1, 0, "-2.5"])
    def test_term_length_must_be_positive(self, length):
        text = json.dumps({**self.document(), "term_length": length})
        with pytest.raises(RecordError, match="^term_length: must be positive"):
            record_from_json(text)

    def test_deep_nesting_names_the_file(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"format": "moneyflow-record", "sheets": ' + "[" * 100_000 + "]" * 100_000 + "}")
        with pytest.raises(RecordError, match=f"^{re.escape(str(path))}: JSON nested too deeply"):
            read_record(path)


class TestReadingRules:
    """One checker reads the parts of both syntaxes: metadata, names and values mean the same."""

    HEADER = "term,kind,id,opening,inflow,outflow,closing,aggregates\n"
    UNRECORDABLE = "a record cannot hold an empty name or one with a comma, whitespace or '='"

    @pytest.mark.parametrize("text,message", [
        ("# moneyflow-record v9\n", "line 1: version: expected 1, got '9'"),
        ("# moneyflow-record v1\n# fingerprnt=abc\n", "line 2: unknown key 'fingerprnt'"),
        ("# hello world\n", "line 1: unknown key 'hello world'"),
        ("# term_length=2.0\n# term_length=3.0\n", "line 2: key 'term_length' repeated"),
        (HEADER + "0,aggregates,,,,,,f=1 f=2\n", "line 2 column 8: aggregate 'f' repeated"),
        (HEADER + "0,aggregates,,,,,,notes_outstanding=1 notes_outstanding=2\n",
         "line 2 column 8: aggregate 'notes_outstanding' repeated"),
        (HEADER + "0,aggregates,,,,,,=5\n", f"term 0: name '': {UNRECORDABLE}"),
        (HEADER + "0,agent,a=b,0,0,0,0,\n0,aggregates,,,,,,\n", f"term 0: name 'a=b': {UNRECORDABLE}"),
    ], ids=["version", "unknown-key", "comment", "repeated-key", "repeated-figure",
            "repeated-notes", "empty-name", "agent-id"])
    def test_csv_messages(self, text, message):
        if not text.startswith(self.HEADER):
            text += self.HEADER
        with pytest.raises(RecordError) as info:
            record_from_csv(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc.update(version=99), "version: expected 1, got 99"),
        (lambda doc: doc["sheets"][0]["rates"].update(notes_outstanding="1/2"),
         "sheet 0 rate notes_outstanding: expected integer, got '1/2'"),
        (lambda doc: doc["sheets"][0]["figures"].update(notes_outstanding=5),
         "sheet 0: aggregate 'notes_outstanding' repeated"),
        (lambda doc: doc["sheets"][0]["figures"].update(discount_rate=5),
         "sheet 0: aggregate 'discount_rate' repeated"),
        (lambda doc: doc["sheets"][0]["agents"].update({"": doc["sheets"][0]["agents"]["A"]}), f"term 0: name '': {UNRECORDABLE}"),
        (lambda doc: doc["sheets"][0]["agents"].update({"a,b": doc["sheets"][0]["agents"]["A"]}),
         f"term 0: name 'a,b': {UNRECORDABLE}"),
        (lambda doc: doc["sheets"][0]["figures"].update({"a b": 1}), f"term 0: name 'a b': {UNRECORDABLE}"),
    ], ids=["version", "notes-as-rate", "notes-as-figure", "rate-and-figure", "empty-agent-id",
            "agent-id-with-comma", "figure-with-space"])
    def test_json_messages(self, edit, message):
        doc = {"format": "moneyflow-record", "version": 1, "sheets": [
            {"term_index": 0, "agents": {"A": dict.fromkeys(AGENT_COLUMNS, 0)},
             "rates": {"discount_rate": "0.025"}, "figures": {"flow": 1}}]}
        edit(doc)
        with pytest.raises(RecordError) as info:
            record_from_json(json.dumps(doc))
        assert str(info.value) == message


RULE_NAMES = st.text(alphabet="abxyz_:é", min_size=1, max_size=4)


@st.composite
def readable_records(draw):
    """A record whose names follow the scenario's rule and whose every sheet holds both default rates."""
    sheets = []
    for term in range(draw(st.integers(1, 3))):
        agents = draw(st.lists(st.text(alphabet="ABC", min_size=1, max_size=2), unique=True, max_size=3))
        extra = draw(st.lists(RULE_NAMES.filter(lambda name: name.partition(":")[2] not in agents),
                              unique=True, max_size=4))
        split = draw(st.integers(0, len(extra)))
        rates = {name: draw(RATIONALS) for name in ("discount_rate", "securities_interest_rate",
                                                    *extra[:split])}
        sheets.append(BalanceSheet(term, {aid: draw(AGENT_LINES) for aid in agents},
                                   draw(st.integers()), draw(st.integers()), rates,
                                   {name: draw(st.integers()) for name in extra[split:]}))
    return Record(tuple(sheets), draw(st.text(alphabet="0123456789abcdef", max_size=16)),
                  draw(st.floats(min_value=1e-9, max_value=1e9)), draw(st.integers()))


def _first_aggregates_row(lines):
    return next(i for i, line in enumerate(lines) if ",aggregates," in line)


def _csv_version(lines):
    if lines[0].startswith("# moneyflow-record v1"):
        lines[0] = "# moneyflow-record v2"
    else:
        lines.insert(0, "# moneyflow-record v2")


def _csv_append(lines, pair):
    row = _first_aggregates_row(lines)
    lines[row] += f" {pair}"


def _csv_notes_as_rate(lines):
    row = _first_aggregates_row(lines)
    lines[row] = re.sub(r"notes_outstanding=-?\d+", "notes_outstanding=1/2", lines[row])


def _csv_empty_agent(lines):
    lines.insert(_first_aggregates_row(lines), "0,agent,,0,0,0,0,")


def _csv_skip_term(lines):
    last = lines[-1].split(",", 1)[0]
    lines[:] = [f"{int(last) + 1},{line.split(',', 1)[1]}" if line.startswith(f"{last},") else line
                for line in lines]


# One perturbation of the same field, in the CSV lines and in the JSON document.
PERTURBATIONS = {
    "version": (_csv_version, lambda doc: doc.update(version=2)),
    "metadata-key": (lambda lines: lines.insert(0, "# extra=1"), lambda doc: doc.update(extra=1)),
    "repeated-name": (lambda lines: _csv_append(lines, "discount_rate=5"),
                      lambda doc: doc["sheets"][0]["figures"].update(discount_rate=5)),
    "reserved-rate": (_csv_notes_as_rate,
                      lambda doc: doc["sheets"][0]["rates"].update(notes_outstanding="1/2")),
    "name-with-space": (lambda lines: _csv_append(lines, "a b=1"),
                        lambda doc: doc["sheets"][0]["figures"].update({"a b": 1})),
    "name-with-comma": (lambda lines: _csv_append(lines, "a,b=1"),
                        lambda doc: doc["sheets"][0]["figures"].update({"a,b": 1})),
    "empty-agent-id": (_csv_empty_agent,
                       lambda doc: doc["sheets"][0]["agents"].update({"": dict.fromkeys(AGENT_COLUMNS, 0)})),
    "non-contiguous-term": (_csv_skip_term, lambda doc: doc["sheets"][-1].update(
        term_index=doc["sheets"][-1]["term_index"] + 1)),
}


def reads(parse, text):
    try:
        parse(text)
    except RecordError:
        return False
    return True


class TestSyntaxesAgree:
    @given(record=readable_records(), perturbation=st.sampled_from(sorted(PERTURBATIONS)))
    @settings(max_examples=200, deadline=None)
    def test_both_readers_accept_or_reject_alike(self, record, perturbation):
        csv_text, json_text = record_to_csv(record), record_to_json(record)
        assert record_from_csv(csv_text) == record
        assert record_from_json(json_text) == record
        edit_csv, edit_json = PERTURBATIONS[perturbation]
        lines = csv_text.splitlines()
        edit_csv(lines)
        doc = json.loads(json_text)
        edit_json(doc)
        csv_reads = reads(record_from_csv, "\n".join(lines) + "\n")
        assert csv_reads == reads(record_from_json, json.dumps(doc))
        assert not csv_reads


@st.composite
def repeating_records(draw):
    """A readable record whose sheets mostly repeat an earlier body (all but the term index):
    as the same objects, as equal values in new objects, with the agents and figures in
    another order, or with one rate or figure changed or added."""
    bodies = [sheet[1:] for sheet in draw(readable_records()).sheets]
    sheets = []
    for term in range(draw(st.integers(1, 8))):
        agents, notes, securities, rates, figures = body = bodies[-1]
        how = draw(st.sampled_from(["same", "copy", "reorder", "change", "earlier"]))
        if how == "copy":
            agents = {aid: AgentLine(*line) for aid, line in agents.items()}
            rates = {name: Fraction(value.numerator, value.denominator) for name, value in rates.items()}
            body = agents, notes, securities, rates, dict(figures)
        elif how == "reorder":
            body = dict(reversed(agents.items())), notes, securities, rates, dict(reversed(figures.items()))
        elif how == "change":
            name = draw(RULE_NAMES)
            if name in figures or name not in rates and draw(st.booleans()):
                figures = {**figures, name: draw(st.integers())}
            else:
                rates = {**rates, name: draw(RATIONALS)}
            body = agents, notes, securities, rates, figures
        elif how == "earlier":
            body = draw(st.sampled_from(bodies))
        bodies.append(body)
        sheets.append(BalanceSheet(term, *body))
    return Record(tuple(sheets), draw(st.text(alphabet="0123456789abcdef", max_size=16)),
                  draw(st.floats(min_value=1e-9, max_value=1e9)), draw(st.integers()))


class TestRepeatingSheets:
    """A sheet whose body repeats the last one's reuses its rendering in the writers and its
    parse in the CSV reader; neither may show in the text or in the record read back."""

    @given(record=records() | repeating_records())
    @settings(max_examples=300, deadline=None)
    def test_writers_match_the_oracles(self, record):
        assert record_to_json(record) == dumped_json(record)
        assert record_to_csv(record) == dumped_csv(record)

    @given(record=repeating_records())
    @settings(max_examples=200, deadline=None)
    def test_round_trips(self, record):
        for read in (record_from_csv(record_to_csv(record)), record_from_json(record_to_json(record))):
            assert read == record
            for field in ("agents", "rates", "figures"):  # each sheet keeps its own mappings
                assert len({id(getattr(sheet, field)) for sheet in read.sheets}) == len(read.sheets)
