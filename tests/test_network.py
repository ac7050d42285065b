"""Flow network construction, exact-money operations, and conservation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moneyflow import (
    BUILTIN_SCENARIOS,
    build_network,
    conservation_holds,
    inject_shock,
    issue,
    notes_outstanding,
    run,
    run_record,
    settle,
    two_agent_kernel,
)
from moneyflow.network import accrue
from moneyflow.retrieval import Assignment, apply_assignment
from moneyflow.scenario import AgentSpec, ChannelSpec, ScenarioError, ScenarioSpec, ShockSpec

from conftest import true_imbalance


def spec_with(agents, channels, **kwargs):
    return ScenarioSpec(name="t", agents=tuple(agents), channels=tuple(channels), **kwargs)


CB = AgentSpec("CB", "CentralBank")


class TestBuildNetwork:
    def test_basic_construction(self):
        spec = spec_with(
            [CB, AgentSpec("A", "Custom:x", stock=100), AgentSpec("B", "Custom:x", stock=50)],
            [ChannelSpec("ab", "A", "B", 10)],
        )
        state = build_network(spec)
        assert conservation_holds(state)
        assert notes_outstanding(state) == 0
        ch = state.channels["ab"]
        assert ch.snap_rate_sink == 10

    def test_self_loop_rejected(self):
        spec = spec_with([CB, AgentSpec("A", "Custom:x")], [ChannelSpec("aa", "A", "A", 5)])
        with pytest.raises(ScenarioError, match="aa.*self-loop"):
            build_network(spec)

    def test_missing_central_bank_rejected(self):
        spec = spec_with([AgentSpec("A", "Custom:x"), AgentSpec("B", "Custom:x")], [])
        with pytest.raises(ScenarioError, match="exactly one CentralBank"):
            build_network(spec)

    def test_two_central_banks_rejected(self):
        spec = spec_with([CB, AgentSpec("CB2", "CentralBank")], [])
        with pytest.raises(ScenarioError, match="exactly one CentralBank"):
            build_network(spec)

    def test_duplicate_agent_id_rejected(self):
        spec = spec_with([CB, AgentSpec("A", "Custom:x"), AgentSpec("A", "Custom:y")], [])
        with pytest.raises(ScenarioError, match="duplicate agent id 'A'"):
            build_network(spec)

    def test_negative_rate_rejected(self):
        spec = spec_with([CB, AgentSpec("A", "Custom:x"), AgentSpec("B", "Custom:x")],
                         [ChannelSpec("ab", "A", "B", -1)])
        with pytest.raises(ScenarioError, match="ab.*negative rate"):
            build_network(spec)

    def test_unknown_endpoint_rejected(self):
        spec = spec_with([CB, AgentSpec("A", "Custom:x")], [ChannelSpec("ab", "A", "B", 1)])
        with pytest.raises(ScenarioError, match="unknown agent 'B'"):
            build_network(spec)

    def test_negative_multiplier_rejected(self):
        spec = spec_with([CB, AgentSpec("A", "Custom:x"), AgentSpec("B", "Custom:x")],
                         [ChannelSpec("ab", "A", "B", 1, multiplier=Fraction(-1, 2))])
        with pytest.raises(ScenarioError, match="ab.*negative multiplier"):
            build_network(spec)

    def test_exemption_matches_role(self, national5_spec):
        state = build_network(national5_spec)
        assert state.agents["CB"].continuity_exempt
        assert not any(state.agents[a].continuity_exempt for a in ("GOV", "BANK", "HH", "CORP"))


    def test_non_positive_mean_wait_rejected(self):
        spec = spec_with([CB, AgentSpec("A", "Custom:x", mean_wait=0.0)], [])
        with pytest.raises(ScenarioError, match="mean_wait must be positive"):
            build_network(spec)

    def test_wake_rate_above_ceiling_rejected(self):
        # Built and rejected before any wake is drawn: a run would not finish.
        fast = [CB, AgentSpec("A", "Custom:x", mean_wait=1e-300)]
        with pytest.raises(ScenarioError, match="per term"):
            build_network(spec_with(fast, []))
        # The ceiling applies to term_length x sum(1 / mean_wait).
        busy = [CB, AgentSpec("A", "Custom:x", mean_wait=1e-6), AgentSpec("B", "Custom:x", mean_wait=1e-6)]
        with pytest.raises(ScenarioError, match="per term"):
            build_network(spec_with(busy, []))
        build_network(spec_with(busy, [], term_length=0.25))

    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_builtin_scenarios_build(self, name):
        state = build_network(BUILTIN_SCENARIOS[name]())
        assert state.agent_order


class TestClone:
    def mid_run_state(self):
        spec = two_agent_kernel(17, 11, gain=Fraction(2, 3))
        spec = spec.with_extra_shocks([ShockSpec(0.9, "ab", 7)])
        state = build_network(spec)
        apply_assignment(state, Assignment(offsets={"A": 3, "B": -3}))
        run(state, 2.3)
        return state

    def test_copies_every_field(self):
        state = self.mid_run_state()
        assert state.log and state.cursors["shock"] == 1
        assert any(c.accrued_num for c in state.channels.values())
        assert state.clone() == state

    def test_shares_only_the_immutable_indexes(self):
        state = self.mid_run_state()
        dup = state.clone()
        assert dup.outgoing is state.outgoing and dup.pair_channels is state.pair_channels
        run(dup, 3.0)
        dup.rates["discount_rate"] = Fraction(1, 9)
        dup.cursors["policy"] += 1
        assert dup != state
        assert state == self.mid_run_state()


class TestIssue:
    def test_zero_amount_no_change(self, tiny_state):
        issue(tiny_state, 0, 0.0)
        assert notes_outstanding(tiny_state) == 0
        assert tiny_state.agents["CB"].stock == 0

    def test_retirement_below_zero_rejected(self, tiny_state):
        with pytest.raises(ValueError, match="below zero"):
            issue(tiny_state, -1, 0.0)

    def test_issue_then_retire_restores(self, tiny_state):
        issue(tiny_state, 1000, 0.0)
        issue(tiny_state, -1000, 0.0)
        assert notes_outstanding(tiny_state) == 0
        assert tiny_state.agents["CB"].stock == 0
        assert conservation_holds(tiny_state)

    def test_transfers_leave_outstanding_unchanged(self, tiny_state):
        issue(tiny_state, 500, 0.0)
        settle(tiny_state, "A", "B", 12.0)
        settle(tiny_state, "A", "B", 20.0)
        assert tiny_state.agents["B"].stock == 200
        assert notes_outstanding(tiny_state) == 500
        assert conservation_holds(tiny_state)


def pair_flows(state, n_terms, first=0):
    """Settled inflow minus outflow of A and B, summed over the sheets from `first` on."""
    sheets = run_record(state, n_terms).sheets[first:]
    return [sum(sheet.agents[aid].inflow - sheet.agents[aid].outflow for sheet in sheets)
            for aid in ("A", "B")]


class TestLocalImbalance:
    """An agent's net settled flow over whole terms, read off the record."""

    def test_balanced_window(self):
        state = build_network(two_agent_kernel(100, 100, gain=Fraction(0)))
        assert pair_flows(state, 3) == [0, 0]

    def test_net_inflow(self):
        state = build_network(two_agent_kernel(100, 120, gain=Fraction(0)))
        assert pair_flows(state, 1) == [20, -20]

    def test_empty_window(self):
        spec = two_agent_kernel(0, 0, gain=Fraction(0)).with_extra_shocks([ShockSpec(0.5, "ab", 50)])
        assert pair_flows(build_network(spec), 3, first=1) == [0, 0]
        assert pair_flows(build_network(spec), 3) == [-50, 50]

    def test_counts_engine_settlements(self):
        # Organic settlements from a live run land in the sheets too, and a
        # closed pair nets to zero over the whole history.
        state = build_network(two_agent_kernel(40, 28, gain=Fraction(1, 2)))
        apply_assignment(state, Assignment(offsets={"A": 5}))
        a, b = pair_flows(state, 3)
        assert any(not ev.payload["observer"] for ev in state.log if ev.kind == "Settlement")
        assert a == state.agents["A"].stock
        assert b == state.agents["B"].stock
        assert a + b == 0


class TestClosedFlowIdentity:
    def test_true_imbalances_sum_to_zero(self, national5_spec):
        state = build_network(national5_spec)
        total = sum(true_imbalance(state, aid) for aid in state.agent_order)
        assert total == 0

    @given(rates=st.lists(st.integers(min_value=0, max_value=10_000), min_size=3, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_sum_zero_for_any_cycle_rates(self, rates):
        spec = spec_with(
            [CB, AgentSpec("A", "Custom:x"), AgentSpec("B", "Custom:x"), AgentSpec("C", "Custom:x")],
            [
                ChannelSpec("ab", "A", "B", rates[0], multiplier=Fraction(1, 3)),
                ChannelSpec("bc", "B", "C", rates[1]),
                ChannelSpec("ca", "C", "A", rates[2], multiplier=Fraction(2, 7)),
            ],
        )
        state = build_network(spec)
        assert sum(true_imbalance(state, aid) for aid in state.agent_order) == 0


@given(
    moves=st.lists(
        st.tuples(st.sampled_from(["A", "B"]), st.integers(min_value=-500, max_value=500)),
        max_size=30,
    ),
    issues=st.lists(st.integers(min_value=0, max_value=1000), max_size=5),
)
@settings(max_examples=60, deadline=None)
def test_conservation_under_random_operations(moves, issues):
    spec = spec_with(
        [CB, AgentSpec("A", "Custom:x", stock=250), AgentSpec("B", "Custom:x", stock=-40)],
        [ChannelSpec("ab", "A", "B", 10), ChannelSpec("ba", "B", "A", 10)],
    )
    state = build_network(spec)
    t = 0.0
    for amount in issues:
        issue(state, amount, t)
    for agent_id, amount in moves:
        t += 0.25
        inject_shock(state, agent_id, amount, t, channel_id="ab")
        settle(state, "A", "B", t)
    assert state.total_stock() - notes_outstanding(state) == 210
    assert conservation_holds(state)


# Times that are tiny, large, or look decimal but are not dyadic-short (0.1, 1/3).
TIME_STEPS = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-12, max_value=1e-6),
    st.floats(min_value=1e-3, max_value=10.0),
    st.floats(min_value=1e3, max_value=1e6),
    st.sampled_from([0.1, 1 / 3, 0.7, 2 / 3, 1e-9]),
)
CHANNEL_OPS = st.one_of(
    st.tuples(st.just("settle"), TIME_STEPS),
    st.tuples(st.just("rate"), TIME_STEPS, st.integers(0, 10_000)),
    st.tuples(st.just("mult"), TIME_STEPS,
              st.builds(Fraction, st.integers(0, 12), st.sampled_from([1, 2, 3, 7, 10]))),
)


class TestIntegerAccrual:
    """Integer accrual and settlement against a naive Fraction reference."""

    @given(ops=st.lists(CHANNEL_OPS, max_size=25), start_rate=st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_matches_fraction_reference(self, ops, start_rate):
        spec = spec_with([CB, AgentSpec("A", "Custom:x"), AgentSpec("B", "Custom:x")],
                         [ChannelSpec("ab", "A", "B", start_rate)])
        state = build_network(spec)
        ch = state.channels["ab"]
        pot = total = Fraction(0)
        rate, mult = start_rate, Fraction(1)
        now = last = 0.0
        for op in ops:
            now += op[1]
            piece = rate * mult * (Fraction(now) - Fraction(last))
            pot += piece
            total += piece
            last = now
            if op[0] == "settle":
                settle(state, "A", "B", now)
                amount = int(pot)
                pot -= amount
                assert state.log[-1].payload["amounts"] == [("ab", amount)]
            else:
                accrue(ch, now)  # as every rate or multiplier change does first
                if op[0] == "rate":
                    ch.rate = rate = op[2]
                else:
                    ch.multiplier = mult = op[2]
            assert Fraction(ch.accrued_num, ch.accrued_den) == pot
        assert state.agents["B"].stock == -state.agents["A"].stock
        assert state.agents["B"].stock + pot == total
