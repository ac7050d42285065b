"""Asynchronous adjustment dynamics: observed deficits, corrections, settlements, events."""

import fractions
import json
import sys
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moneyflow import (
    Channel,
    build_network,
    conservation_holds,
    equilibrate,
    event_trace,
    inject_shock,
    next_event,
    observed_deficit,
    run,
    record_terms,
    run_record,
    settle,
    settle_all,
    three_agent_cycle,
    two_agent_kernel,
    update_agent,
)
from moneyflow import engine, rng
from moneyflow.engine import _residual_moves_a_rate, apportion
from moneyflow.network import Event
from moneyflow.retrieval import Assignment, apply_assignment
from moneyflow.scenario import (
    BUILTIN_SCENARIOS,
    AgentSpec,
    ChannelSpec,
    PolicyAction,
    ScenarioError,
    ScenarioSpec,
    ScheduledAmount,
    ShockSpec,
    scenario_from_dict,
)

from conftest import (
    overflowing_cycle,
    reference_run,
    residual_only_updates,
    sheets_from_log,
    tiny_spec,
    true_imbalance,
    wider_rule_run,
)

ONE = Fraction(1)


def entry(cid, rate, mult=ONE, adjustable=True):
    """A channel from X to Y; as an incoming channel its `rate` stands for the snapshot."""
    return Channel(cid, "X", "Y", rate, mult.numerator, mult.denominator, adjustable)


def naive_deficit(outgoing, incoming):
    """Observed outflow minus observed inflow, summed term by term in Fraction."""
    return (sum((Fraction(c.rate) * c.multiplier for c in outgoing), Fraction(0))
            - sum((Fraction(c.rate) * c.multiplier for c in incoming), Fraction(0)))


def correct(outgoing, incoming, gain, carry=0):
    """`equilibrate` of the adjustable outgoing channels against the naive deficit."""
    adjustable = [c for c in outgoing if c.adjustable]
    return equilibrate(adjustable, naive_deficit(outgoing, incoming), gain, carry)


def run_slices(state, min_events, horizon=0.05):
    """Advance `state` in short runs until its agents woke at least `min_events` times."""
    while sum(a.event_count for a in state.agents.values()) < min_events:
        run(state, horizon)
        yield state


class TestNextEvent:
    def test_tie_breaks_to_lower_id(self, tiny_state):
        for agent in tiny_state.agents.values():
            agent.next_time = 1.0
        assert next_event(tiny_state) == ("A", 1.0)

    def test_single_agent_network(self):
        spec = ScenarioSpec(name="solo", agents=(AgentSpec("CB", "CentralBank"),), channels=())
        state = build_network(spec)
        aid, _ = next_event(state)
        assert aid == "CB"

    def test_repeat_invocation_identical(self, tiny_state):
        assert next_event(tiny_state) == next_event(tiny_state)

    def test_every_wake_at_infinity_gives_the_lowest_id(self, tiny_state):
        # An overflowed clock leaves every wake time at inf: the scan still
        # names an agent, and only an empty scan has none.
        for agent in tiny_state.agents.values():
            agent.next_time = float("inf")
        assert next_event(tiny_state) == ("A", float("inf"))
        assert next_event(tiny_state, {"CB", "B"}) == ("B", float("inf"))
        with pytest.raises(ValueError, match="no agents"):
            next_event(tiny_state, set())

    def test_a_loop_end_that_overflows_ends_the_loop(self):
        # Two terms of 1e308 end at inf; the loop stops there instead of
        # failing in the scan. `run_record` rejects such a run up front.
        doc = overflowing_cycle()
        state = build_network(scenario_from_dict(doc))
        terms = engine._advance(state, (1e308, 2e308))
        next(terms)
        next(terms)
        assert state.now == float("inf")
        assert conservation_holds(state)
        with pytest.raises(ScenarioError, match="largest float"):
            run_record(build_network(scenario_from_dict(doc)), 2)


class TestObserve:
    """A's observed deficit on the cycle: ab (out, 300) minus the snapshot of ca (in)."""

    def test_view_fresh_after_settlement(self, cycle_spec):
        state = build_network(cycle_spec)
        state.channels["ca"].rate = 280  # C moved without settling yet
        settle(state, "C", "A", 0.5)
        assert observed_deficit(state, "A") == 20

    def test_partner_change_invisible_until_settlement(self, cycle_spec):
        state = build_network(cycle_spec)
        state.channels["ca"].rate = 280
        assert observed_deficit(state, "A") == 0

    def test_own_rate_always_current(self, cycle_spec):
        state = build_network(cycle_spec)
        state.channels["ab"].rate = 310
        assert observed_deficit(state, "A") == 10

    def test_unknown_agent(self, tiny_state):
        with pytest.raises(KeyError):
            observed_deficit(tiny_state, "nope")


class TestEquilibrate:
    def test_balanced_view_all_zero(self):
        deltas, residual = correct([entry("out", 10)], [entry("in", 10)], ONE)
        assert deltas == {"out": 0}
        assert type(residual) is Fraction and residual == 0

    def test_unit_gain_closes_gap(self):
        deltas, residual = correct([entry("out", 10)], [entry("in", 8)], ONE)
        assert deltas == {"out": -2}
        assert residual == 0

    def test_half_gain_corrects_half(self):
        deltas, residual = correct([entry("out", 10)], [entry("in", 8)], Fraction(1, 2))
        assert deltas == {"out": -1}
        assert residual == 0

    def test_clamp_overflows_into_residual(self):
        deltas, residual = correct([entry("out", 1)], [entry("in", 0)], Fraction(5))
        assert deltas == {"out": -1}
        assert residual == -4

    def test_fractional_demand_kept_in_residual(self):
        deltas, residual = correct([entry("out", 10)], [entry("in", 7)], Fraction(1, 2))
        assert deltas == {"out": -1}
        assert residual == Fraction(-1, 2)

    def test_surplus_raises_outgoing(self):
        deltas, _ = correct([entry("out", 10)], [entry("in", 14)], ONE)
        assert deltas == {"out": 4}

    def test_proportional_split(self):
        deltas, _ = correct([entry("big", 30), entry("small", 10)], [entry("in", 0)], ONE)
        assert deltas == {"big": -30, "small": -10}

    def test_equal_split_on_zero_rates(self):
        deltas, _ = correct([entry("x", 0), entry("y", 0)], [entry("in", 5)], ONE)
        assert deltas == {"x": 2, "y": 3} or deltas == {"x": 3, "y": 2}
        assert sum(deltas.values()) == 5

    def test_negative_gain_rejected(self):
        with pytest.raises(ValueError):
            equilibrate([], 0, Fraction(-1))

    @given(
        out_rates=st.lists(st.integers(0, 400), min_size=1, max_size=4),
        in_rates=st.lists(st.integers(0, 400), min_size=0, max_size=4),
        gain_num=st.integers(0, 12),
        gain_den=st.integers(1, 5),
        carry_num=st.integers(-40, 40),
    )
    @settings(max_examples=120, deadline=None)
    def test_exactness_identity(self, out_rates, in_rates, gain_num, gain_den, carry_num):
        gain = Fraction(gain_num, gain_den)
        carry = Fraction(carry_num, 3)
        outgoing = [entry(f"o{i}", r) for i, r in enumerate(out_rates)]
        incoming = [entry(f"i{i}", r, adjustable=False) for i, r in enumerate(in_rates)]
        deficit = naive_deficit(outgoing, incoming)
        deltas, residual = equilibrate(outgoing, deficit, gain, carry)
        assert sum(deltas.values()) + residual == -gain * deficit + carry
        for ch in outgoing:
            assert ch.rate + deltas[ch.id] >= 0


class TestObservedDeficit:
    @given(
        rates=st.lists(st.integers(0, 900), min_size=4, max_size=4),
        snaps=st.lists(st.integers(0, 900), min_size=4, max_size=4),
        mults=st.lists(st.tuples(st.integers(0, 9), st.sampled_from([1, 1, 3, 4, 7])),
                       min_size=4, max_size=4),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_naive_fraction_sum(self, rates, snaps, mults):
        ends = {"ab": ("A", "B"), "bc": ("B", "C"), "ca": ("C", "A"), "ac": ("A", "C")}
        spec = ScenarioSpec(
            name="p",
            agents=(AgentSpec("CB", "CentralBank"), AgentSpec("A", "Custom:x"),
                    AgentSpec("B", "Custom:x"), AgentSpec("C", "Custom:x")),
            channels=tuple(ChannelSpec(cid, src, dst, rate, multiplier=Fraction(*mult))
                           for (cid, (src, dst)), rate, mult in zip(ends.items(), rates, mults)),
        )
        state = build_network(spec)
        for cid, snap in zip(ends, snaps):
            state.channels[cid].snap_rate_sink = snap
        channels = state.channels.values()
        for aid in ("A", "B", "C"):
            outgoing = [entry(c.id, c.rate, c.multiplier) for c in channels if c.source == aid]
            incoming = [entry(c.id, c.snap_rate_sink, c.multiplier) for c in channels if c.sink == aid]
            assert observed_deficit(state, aid) == naive_deficit(outgoing, incoming)


def fraction_apportion(total, weights):
    """The Fraction-arithmetic largest-remainder split, kept as the oracle."""
    n = len(weights)
    wsum = sum(weights)
    if wsum == 0:
        weights = [1] * n
        wsum = n
    sign = 1 if total >= 0 else -1
    magnitude = abs(total)
    shares = [Fraction(magnitude) * w / wsum for w in weights]
    base = [int(s) for s in shares]
    leftover = magnitude - sum(base)
    if leftover:
        by_remainder = sorted(range(n), key=lambda i: (base[i] - shares[i], i))
        for i in by_remainder[:leftover]:
            base[i] += 1
    return [sign * b for b in base]


def fraction_equilibrate(channels, deficit, gain, carry):
    """Deltas and residual by the Fraction formula of the correction, kept as the oracle."""
    deltas = {c.id: 0 for c in channels}
    demand = Fraction(-gain * deficit + carry)
    units = int(demand)
    if channels and units:
        weights = [c.rate if c.multiplier == 1 else c.rate * c.multiplier for c in channels]
        for c, part in zip(channels, fraction_apportion(units, weights)):
            deltas[c.id] = max(part, -c.rate)
    return deltas, demand - sum(deltas.values())


WEIGHTS = st.one_of(
    st.integers(0, 50),
    st.builds(Fraction, st.integers(0, 60), st.sampled_from([1, 2, 3, 7, 10])),
)


class TestApportion:
    @given(
        total=st.integers(-500, 500),
        weights=st.lists(st.integers(0, 50), min_size=1, max_size=6),
    )
    @settings(max_examples=120, deadline=None)
    def test_sums_exactly(self, total, weights):
        parts = apportion(total, weights)
        assert sum(parts) == total
        if total >= 0:
            assert all(p >= 0 for p in parts)
        else:
            assert all(p <= 0 for p in parts)

    @given(
        total=st.integers(-10_000, 10_000),
        weights=st.one_of(st.lists(WEIGHTS, min_size=1, max_size=6),
                          st.lists(st.just(0), min_size=1, max_size=6)),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_oracle(self, total, weights):
        assert apportion(total, weights) == fraction_apportion(total, weights)

    def test_tie_goes_to_lowest_index(self):
        assert apportion(1, [Fraction(1, 3), 1, Fraction(2, 3), 1]) == [0, 1, 0, 0]
        assert apportion(-2, [0, 0, 0]) == [-1, -1, 0]

    def test_rejects_negative_and_empty_weights(self):
        with pytest.raises(ValueError, match="non-negative"):
            apportion(3, [1, Fraction(-1, 2)])
        with pytest.raises(ValueError, match="at least one"):
            apportion(3, [])


class TestEquilibrateOracle:
    @given(
        out=st.lists(st.tuples(st.integers(0, 400), WEIGHTS, st.booleans()), min_size=0, max_size=4),
        inflow=st.lists(st.tuples(st.integers(0, 400), WEIGHTS), min_size=0, max_size=3),
        gain=st.builds(Fraction, st.integers(0, 12), st.integers(1, 5)),
        carry=st.one_of(st.just(0), st.builds(Fraction, st.integers(-40, 40), st.integers(1, 7))),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_formula(self, out, inflow, gain, carry):
        outgoing = [entry(f"o{i}", r, Fraction(m), adj) for i, (r, m, adj) in enumerate(out)]
        incoming = [entry(f"i{i}", r, Fraction(m), False) for i, (r, m) in enumerate(inflow)]
        adjustable = [c for c in outgoing if c.adjustable]
        deficit = naive_deficit(outgoing, incoming)
        deltas, residual = equilibrate(adjustable, deficit, gain, carry)
        assert (deltas, residual) == fraction_equilibrate(adjustable, deficit, gain, carry)
        assert type(residual) is Fraction


def general_equilibrate(channels, deficit, gain, carry=0):
    """`equilibrate` with every channel list taking the weighted path: the
    body before a lone channel got the demand directly, kept as the oracle."""
    if gain.numerator < 0:
        raise ValueError("gain must be non-negative")
    gd = gain.denominator
    dd = deficit.denominator
    cd = carry.denominator
    den = gd * dd * cd
    num = carry.numerator * gd * dd - gain.numerator * deficit.numerator * cd
    deltas = {ch.id: 0 for ch in channels}
    applied = 0
    units = num // den if num >= 0 else -(-num // den)
    if units and channels:
        scale = lcm(*(ch.multiplier.denominator for ch in channels))
        weights = [ch.rate * ch.multiplier.numerator * (scale // ch.multiplier.denominator)
                   for ch in channels]
        for ch, part in zip(channels, apportion(units, weights)):
            if ch.rate + part < 0:
                part = -ch.rate
            deltas[ch.id] = part
            applied += part
    return deltas, Fraction(num - applied * den, den)


RATIONALS = st.one_of(st.integers(-500, 500),
                      st.builds(Fraction, st.integers(-500, 500), st.integers(1, 12)))


class TestOneChannelOracle:
    """A lone channel gets the whole demand, clamped, as the weighted path gives it."""

    @given(
        rate=st.one_of(st.just(0), st.integers(0, 400)),
        multiplier=st.one_of(st.sampled_from([Fraction(0), Fraction(1)]),
                             st.builds(Fraction, st.integers(0, 40), st.integers(1, 10))),
        deficit=RATIONALS,
        gain=st.builds(Fraction, st.integers(0, 12), st.integers(1, 6)),
        carry=st.one_of(st.just(0), st.builds(Fraction, st.integers(-40, 40), st.integers(1, 7))),
    )
    @example(rate=0, multiplier=Fraction(0), deficit=5, gain=ONE, carry=0)
    @example(rate=3, multiplier=Fraction(3, 10), deficit=Fraction(41, 4), gain=Fraction(5, 2),
             carry=Fraction(-1, 3))  # the clamp blocks most of the cut
    @example(rate=3, multiplier=ONE, deficit=-7, gain=Fraction(1, 2), carry=Fraction(2, 3))
    @settings(max_examples=400, deadline=None)
    def test_matches_weighted_path(self, rate, multiplier, deficit, gain, carry):
        channels = [entry("x", rate, multiplier)]
        deltas, residual = equilibrate(channels, deficit, gain, carry)
        assert (deltas, residual) == general_equilibrate(channels, deficit, gain, carry)
        assert type(residual) is Fraction
        assert sum(deltas.values()) + residual == -gain * deficit + carry
        assert rate + deltas["x"] >= 0


def fan_state(rates, multipliers, gain, carry):
    """Agent A with one adjustable outgoing channel per rate, to B0, B1, ...,
    and the carried residual `carry`."""
    sinks = [f"B{i}" for i in range(len(rates))]
    spec = ScenarioSpec(
        name="fan",
        agents=(AgentSpec("CB", "CentralBank"), AgentSpec("A", "Custom:x", gain=gain),
                *(AgentSpec(b, "Custom:x") for b in sinks)),
        channels=tuple(ChannelSpec(f"a{b}", "A", b, rate, multiplier=m, adjustable=True)
                       for b, rate, m in zip(sinks, rates, multipliers)),
    )
    state = build_network(spec)
    state.agents["A"].pending_correction = carry
    return state


class TestResidualPreCheck:
    """`_residual_moves_a_rate` agrees with equilibrating the residual alone."""

    @given(
        rates=st.lists(st.one_of(st.just(0), st.integers(0, 50)), min_size=1, max_size=3),
        multipliers=st.lists(st.sampled_from([Fraction(0), Fraction(1, 3), ONE, Fraction(5, 2)]),
                             min_size=3, max_size=3),
        gain=st.builds(Fraction, st.integers(0, 6), st.integers(1, 4)),
        carry=st.one_of(
            st.builds(Fraction, st.integers(-23, 23), st.integers(2, 24)),  # inside (-1, 1)
            st.sampled_from([Fraction(1), Fraction(-1), 0]),
            st.builds(Fraction, st.integers(-90, 90), st.integers(1, 4)),
        ),
    )
    @example(rates=[0, 0], multipliers=[ONE] * 3, gain=ONE, carry=Fraction(-3, 2))
    @example(rates=[0], multipliers=[Fraction(0)] * 3, gain=ONE, carry=Fraction(1))
    @example(rates=[4, 0, 9], multipliers=[ONE] * 3, gain=Fraction(0), carry=Fraction(-1))
    @settings(max_examples=400, deadline=None)
    def test_matches_full_equilibrate(self, rates, multipliers, gain, carry):
        state = fan_state(rates, multipliers, gain, carry)
        agent = state.agents["A"]
        channels = [state.channels[cid] for cid in state.adjustable_outgoing["A"]]
        deltas, _ = equilibrate(channels, 0, gain, carry)
        assert _residual_moves_a_rate(state, agent) == any(deltas.values())

    @given(
        n_channels=st.integers(0, 3),
        multipliers=st.lists(st.sampled_from([Fraction(0), Fraction(1, 3), ONE, Fraction(5, 2)]),
                             min_size=3, max_size=3),
        gain=st.builds(Fraction, st.integers(0, 6), st.integers(1, 4)),
        carry=st.builds(Fraction, st.integers(-400, -4), st.integers(1, 4)),
    )
    @example(n_channels=1, multipliers=[ONE] * 3, gain=ONE, carry=Fraction(-1))
    @settings(max_examples=100, deadline=None)
    def test_clamp_blocked_residual_skips_equilibrate(self, n_channels, multipliers, gain, carry):
        # A residual of at most -1 over channels all at rate 0 can only push
        # them below 0, which the clamp blocks.
        state = fan_state([0] * n_channels, multipliers, gain, carry)

        def must_not_run(*args):
            raise AssertionError("equilibrate ran")

        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(engine, "equilibrate", must_not_run)
            assert not _residual_moves_a_rate(state, state.agents["A"])


def fraction_calls(fn, *args, counted=(), **kwargs):
    """Names of the `fractions` functions `fn` enters, numerator and denominator
    reads excepted unless they read a value in `counted`."""
    calls = []
    pairs = [(v.numerator, v.denominator) for v in counted]

    def hook(frame, event, arg):
        code = frame.f_code
        if event != "call" or code.co_filename != fractions.__file__:
            return
        if code.co_name in ("numerator", "denominator"):
            read = frame.f_locals["a"]  # the property's instance, read without entering it
            if (read._numerator, read._denominator) not in pairs:
                return
        calls.append(code.co_name)

    sys.setprofile(hook)
    try:
        fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return calls


class TestFractionFreeHotPath:
    """Accrual, settlement and apportionment run in plain integers."""

    def test_accrue_and_settle(self):
        spec = ScenarioSpec(
            name="m",
            agents=(AgentSpec("CB", "CentralBank"), AgentSpec("A", "Custom:x"), AgentSpec("B", "Custom:x")),
            channels=(ChannelSpec("ab", "A", "B", 70, multiplier=Fraction(3, 10)),
                      ChannelSpec("ba", "B", "A", 40)),
        )
        state = build_network(spec)
        assert fraction_calls(settle, state, "A", "B", 0.3) == []
        state.channels["ba"].multiplier = Fraction(2, 7)
        assert fraction_calls(settle_all, state, 1.1, term=0) == []

    def test_apportion(self):
        assert fraction_calls(apportion, 17, [7, 42, 15]) == []

    def test_active_update_builds_only_the_residual(self):
        # A observes 70 * 3/10 - 14 * 2/7 = 17 and corrects by 5/2 of it; the
        # 2/7 comes from a policy mid-run. Its settlement with B then accrues
        # both channels at their multipliers.
        spec = ScenarioSpec(
            name="m",
            agents=(AgentSpec("CB", "CentralBank"),
                    AgentSpec("A", "Custom:x", gain=Fraction(5, 2), mean_wait=1e6),
                    AgentSpec("B", "Custom:x", mean_wait=1e6)),
            channels=(ChannelSpec("ab", "A", "B", 70, multiplier=Fraction(3, 10), adjustable=True),
                      ChannelSpec("ba", "B", "A", 14)),
            policy=(PolicyAction(0.125, "set_multiplier", "ba", Fraction(2, 7)),),
        )
        state, _ = run(build_network(spec), 0.25)
        assert [ev.kind for ev in state.log] == ["Policy"]
        multipliers = (Fraction(3, 10), Fraction(2, 7))
        assert fraction_calls(update_agent, state, "A", 0.5, counted=multipliers) == ["__new__"]
        update, settlement = state.log[-2:]
        assert update.payload["deficit"] == 17 and update.payload["deltas"] == {"ab": -42}
        assert update.payload["residual"] == Fraction(-1, 2)
        assert settlement.payload["amounts"] == [("ab", 10), ("ba", 3)]  # 10.5 and 1.75 + 1.5

    def test_equilibrate_builds_only_the_residual(self):
        outgoing = [entry("x", 10, Fraction(3, 10)), entry("y", 4)]
        deficit = naive_deficit(outgoing, [entry("in", 3, Fraction(1, 3))])
        calls = fraction_calls(equilibrate, outgoing, deficit, Fraction(5, 2), Fraction(-1, 3))
        assert [c for c in calls if c != "__eq__"] == ["__new__"]
        # A whole demand fully applied leaves the shared zero: nothing is built.
        deltas, residual = equilibrate(outgoing, 1, Fraction(2))
        assert sum(deltas.values()) == -2 and residual == 0
        assert fraction_calls(equilibrate, outgoing, 1, Fraction(2)) == []


class TestSettle:
    def test_zero_elapsed_transfers_nothing(self, tiny_state):
        settle(tiny_state, "A", "B", 0.0)
        assert tiny_state.agents["A"].stock == 0

    def test_one_term_transfers_rate(self, tiny_state):
        settle(tiny_state, "A", "B", 1.0)
        assert tiny_state.agents["A"].stock == -10
        assert tiny_state.agents["B"].stock == 10

    def test_accrual_carry_loses_nothing(self, tiny_state):
        settle(tiny_state, "A", "B", 0.25)
        first = tiny_state.agents["B"].stock
        settle(tiny_state, "A", "B", 0.5)
        assert first == 2  # trunc(2.5)
        assert tiny_state.agents["B"].stock == 5  # carry recovered: 2 then 3

    def test_no_connecting_channel(self, tiny_state):
        with pytest.raises(ValueError, match="no channel connects"):
            settle(tiny_state, "A", "CB", 1.0)


class TestInjectShock:
    def test_zero_amount_is_log_only(self, tiny_state):
        tiny_state.channels["ab"].rate = 25  # A moved without settling yet
        inject_shock(tiny_state, "A", 0, 0.7, channel_id="ab")
        assert tiny_state.agents["A"].stock == 0
        assert tiny_state.channels["ab"].snap_rate_sink == 10
        assert tiny_state.log[-1].kind == "Shock"

    def test_redistributes_and_conserves(self, tiny_state):
        inject_shock(tiny_state, "A", 50, 0.7, channel_id="ab")
        assert tiny_state.agents["A"].stock == 50
        assert tiny_state.agents["B"].stock == -50
        assert tiny_state.total_stock() == 0

    def test_opposite_shocks_cancel(self, tiny_state):
        inject_shock(tiny_state, "A", 50, 0.7, channel_id="ab")
        inject_shock(tiny_state, "A", -50, 0.8, channel_id="ab")
        assert all(a.stock == 0 for a in tiny_state.agents.values())

    def test_unknown_agent(self, tiny_state):
        with pytest.raises(KeyError):
            inject_shock(tiny_state, "nope", 5, 0.1, channel_id="ab")


class TestReverberationKernel:
    """Two interacting agents with hidden initial offsets: the canonical miss."""

    def setup_state(self):
        state = build_network(two_agent_kernel(10, 10, gain=ONE))
        apply_assignment(state, Assignment(offsets={"A": 2, "B": -2}))
        return state

    def test_offsets_shift_truth_not_snapshots(self):
        state = self.setup_state()
        assert state.channels["ab"].rate == 12
        assert state.channels["ba"].rate == 8
        assert state.channels["ab"].snap_rate_sink == 10
        assert state.channels["ba"].snap_rate_sink == 10

    def test_one_update_zeroes_observed_but_not_partner_truth(self):
        state = self.setup_state()
        assert observed_deficit(state, "A") == 2
        before_partner = true_imbalance(state, "B")
        update_agent(state, "A", 0.1)
        # The correction exactly closes the gap in the view it acted on.
        adj = [e for e in state.log if e.kind == "AgentUpdate"][-1]
        assert adj.payload["deltas"] == {"ab": -2}
        assert adj.payload["residual"] == 0
        assert state.channels["ab"].rate == 10
        # The partner's true imbalance moved and remains nonzero.
        assert true_imbalance(state, "B") == 2
        assert true_imbalance(state, "B") != before_partner
        # The corrector itself now truly overshoots.
        assert true_imbalance(state, "A") == -2

    def test_gain_two_oscillates_gain_half_converges(self):
        for gain, growing in ((Fraction(3), True), (Fraction(1, 2), False)):
            state = build_network(two_agent_kernel(400, 396, gain=gain))
            gaps = []
            t = 0.0
            for i in range(6):
                actor = "A" if i % 2 == 0 else "B"
                t += 0.1
                gaps.append(abs(observed_deficit(state, actor)))
                update_agent(state, actor, t)
            nonzero = [g for g in gaps if g != 0]
            if growing:
                assert all(b >= a for a, b in zip(nonzero, nonzero[1:]))
                assert nonzero[-1] > nonzero[0]
            else:
                assert gaps[-1] < gaps[0]


class TestStepAndRun:
    def test_update_moves_only_adjustable_channels(self):
        # A sees outflow 30 + 20 against inflow 40; at gain 1 the whole
        # correction of -10 lands on ab, and ac keeps its rate.
        spec = ScenarioSpec(
            name="fixed",
            agents=(AgentSpec("CB", "CentralBank"), AgentSpec("A", "Custom:x", gain=ONE),
                    AgentSpec("B", "Custom:x"), AgentSpec("C", "Custom:x")),
            channels=(ChannelSpec("ab", "A", "B", 30, adjustable=True),
                      ChannelSpec("ac", "A", "C", 20),
                      ChannelSpec("ca", "C", "A", 40, adjustable=True)),
        )
        state = build_network(spec)
        event = update_agent(state, "A", 0.5)
        assert event.payload["deficit"] == 10
        assert event.payload["deltas"] == {"ab": -10}
        assert (state.channels["ab"].rate, state.channels["ac"].rate) == (20, 20)
        assert [ev.payload["b"] for ev in state.log if ev.kind == "Settlement"] == ["B"]

    def test_zero_gain_freezes_rates(self):
        spec = tiny_spec(gain=Fraction(0))
        state = build_network(spec)
        for _ in run_slices(state, 40):
            assert state.channels["ab"].rate == 10

    def test_same_seed_same_event_record(self):
        spec = tiny_spec(seed=9)
        a, _ = run(build_network(spec), 10.0)
        b, _ = run(build_network(spec), 10.0)
        assert event_trace(a.log) == event_trace(b.log)

    def test_log_times_non_decreasing(self, national5_spec):
        state, events = run(build_network(national5_spec), 8.0)
        assert all(a.time <= b.time for a, b in zip(events, events[1:]))
        assert [e.seq for e in events] == list(range(len(events)))

    def test_zero_horizon_empty_log(self, tiny_state):
        _, events = run(tiny_state, 0.0)
        assert events == []

    def test_run_composes(self):
        spec = tiny_spec(seed=4)
        split = build_network(spec)
        run(split, 3.0)
        run(split, 4.0)
        whole = build_network(spec)
        run(whole, 7.0)
        assert event_trace(split.log) == event_trace(whole.log)
        assert split.now == whole.now
        assert {a.id: a.stock for a in split.agents.values()} == \
               {a.id: a.stock for a in whole.agents.values()}

    def test_zero_gain_accruals_only(self):
        # With zero gains nothing ever adjusts, so stocks move exactly by the
        # per-term boundary settlements of the constant rates.
        spec = tiny_spec(gain=Fraction(0), seed=2)
        state = build_network(spec)
        run_record(state, 5)
        assert state.agents["A"].stock == -50
        assert state.agents["B"].stock == 50
        assert state.channels["ab"].rate == 10

    def test_conservation_after_every_step(self):
        state = build_network(two_agent_kernel(17, 11, gain=Fraction(2, 3)))
        apply_assignment(state, Assignment(offsets={"A": 3, "B": -3}))
        for _ in run_slices(state, 40):
            assert conservation_holds(state)


class TestScheduledActions:
    def test_multiplier_change_applies_at_exact_time(self):
        from moneyflow.scenario import PolicyAction

        spec = tiny_spec(gain=Fraction(0)).with_extra_policy(
            [PolicyAction(2.0, "set_multiplier", "ab", Fraction(2))]
        )
        state = build_network(spec)
        run(state, 5.0)
        policy_events = [e for e in state.log if e.kind == "Policy"]
        assert len(policy_events) == 1
        assert policy_events[0].time == 2.0
        assert state.channels["ab"].multiplier == 2

    def test_scheduled_shock_executes(self):
        from moneyflow.scenario import ShockSpec
        from dataclasses import replace

        spec = tiny_spec(gain=Fraction(0))
        spec = replace(spec, shocks=(ShockSpec(1.5, "ab", 25),))
        state = build_network(spec)
        run(state, 3.0)
        shocks = [e for e in state.log if e.kind == "Shock"]
        assert len(shocks) == 1
        assert shocks[0].payload["amount"] == 25
        assert conservation_holds(state)

    def test_issuance_executes_at_cb_event_after_due_time(self):
        from dataclasses import replace
        from moneyflow.scenario import ScheduledAmount

        spec = replace(tiny_spec(gain=Fraction(0)), issuance=(ScheduledAmount(1.0, 700),))
        state = build_network(spec)
        run(state, 6.0)
        issues = [e for e in state.log if e.kind == "Issue"]
        assert len(issues) == 1
        assert issues[0].time >= 1.0
        assert state.cumulative_issuance == 700


# Times on a quarter grid: scheduled items, issuance entries, first wakes and
# term ends collide, so the tie rules (scheduled items first, then the lower
# id) are exercised.
GRID = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0])
ORACLE_CHANNELS = (("ab", "A", "B"), ("bc", "B", "C"), ("ca", "C", "A"), ("ac", "A", "C"),
                   ("cba", "CB", "A"))
CHANNEL_IDS = st.sampled_from([cid for cid, _, _ in ORACLE_CHANNELS])


@st.composite
def oracle_states(draw, lengths=(1.0, 0.5, 0.75, 1 / 3)):
    """A cycle with a chord and a central-bank channel, disturbed at random.

    The cycle often starts balanced, so agents go dormant; hidden offsets move
    true rates but not snapshots, a zero gain keeps an agent from settling,
    and shocks and multiplier changes hit any channel.
    """
    gains = [draw(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3)]))
             for _ in range(3)]
    base = draw(st.integers(10, 60))
    rates = [base + draw(st.sampled_from([0, 0, 0, 7])) for _ in range(3)]
    rates += [draw(st.sampled_from([0, 12])), draw(st.sampled_from([0, 20]))]
    spec = ScenarioSpec(
        name="oracle",
        seed=draw(st.integers(0, 2 ** 16)),
        term_length=draw(st.sampled_from(lengths)),
        agents=(AgentSpec("CB", "CentralBank", mean_wait=0.5),
                *(AgentSpec(aid, "Custom:x", gain=gain, mean_wait=0.25)
                  for aid, gain in zip("ABC", gains))),
        channels=tuple(ChannelSpec(cid, src, dst, rate, adjustable=(cid != "ac" or draw(st.booleans())))
                       for (cid, src, dst), rate in zip(ORACLE_CHANNELS, rates)),
        issuance=tuple(sorted(draw(st.lists(st.builds(ScheduledAmount, GRID, st.integers(1, 50)),
                                            max_size=2)), key=lambda e: e.time)),
    )
    spec = spec.with_extra_shocks(draw(st.lists(
        st.builds(ShockSpec, GRID, CHANNEL_IDS, st.integers(-20, 20)), max_size=4)))
    spec = spec.with_extra_policy(draw(st.lists(
        st.builds(PolicyAction, GRID, st.just("set_multiplier"), CHANNEL_IDS,
                  st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2)])),
        max_size=3)))
    state = build_network(spec)
    offsets = {aid: draw(st.sampled_from([0, 0, 4, -6, 9])) for aid in "ABC"}
    apply_assignment(state, Assignment(offsets=offsets))
    for agent in state.agents.values():
        agent.next_time = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    return state


def assert_same_run(state, ref):
    assert event_trace(state.log) == event_trace(ref.log)
    assert state.agents == ref.agents  # stocks, event counts, wake times, pending corrections
    assert state.channels == ref.channels  # rates, multipliers, snapshots, accruals
    assert state == ref


class TestDormancyOracle:
    """`run` skips wakes that cannot act and gives what scanning every wake gives."""

    @given(state=oracle_states(), n_terms=st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_loop_with_cuts(self, state, n_terms):
        ref = state.clone()
        length = state.spec.term_length
        for term in range(n_terms):
            run(state, length)
            settle_all(state, state.now, term=term)
            reference_run(ref, length)
            settle_all(ref, ref.now, term=term)
            assert_same_run(state, ref)

    @given(state=oracle_states(), h1=GRID, h2=GRID)
    @settings(max_examples=100, deadline=None)
    def test_runs_compose_and_clones_continue(self, state, h1, h2):
        whole, ref = state.clone(), state.clone()
        run(whole, h1 + h2)
        reference_run(ref, h1 + h2)
        assert_same_run(whole, ref)
        run(state, h1)
        branch = state.clone()
        run(state, h2)
        assert_same_run(state, whole)
        run(branch, h2)
        assert_same_run(branch, whole)

    def test_no_op_wakes_are_not_logged(self):
        state = build_network(two_agent_kernel(10, 10))
        run(state, 5.0)
        assert state.log == []
        assert all(a.event_count > 0 for a in state.agents.values())

    def test_residual_that_cannot_move_a_rate_is_not_logged(self):
        # Gain 3 with the acceptance-6 offsets drives all three cycle rates to
        # 0 within terms 0-2; the agents then carry residuals that the
        # rate >= 0 clamp keeps from ever being applied.
        spec = three_agent_cycle(gain=Fraction(3))
        offsets = Assignment(offsets={"A": 30, "B": 0, "C": -15})
        state = build_network(spec)
        apply_assignment(state, offsets)
        record = run_record(state, 8)
        wider = wider_rule_run(spec, 8, offsets)
        assert residual_only_updates(state.log) == []
        assert len(residual_only_updates(wider.log)) > 8
        assert all(state.channels[cid].rate == 0 for cid in ("ab", "bc", "ca"))
        assert all(state.agents[aid].pending_correction != 0 for aid in "ABC")
        assert sheets_from_log(wider) == list(record.sheets)

    def test_one_deficit_per_wake(self, monkeypatch):
        # `run` reads each wake's observed deficit once and hands it over:
        # no update it makes computes it again.
        calls, updates = [], []
        deficit = engine.observed_deficit
        update = engine.update_agent

        def counted(state, agent_id):
            calls.append(agent_id)
            return deficit(state, agent_id)

        def watched(state, agent_id, now, *given):
            before = len(calls)
            event = update(state, agent_id, now, *given)
            assert len(calls) == before
            updates.append(event)
            return event

        monkeypatch.setattr(engine, "observed_deficit", counted)
        monkeypatch.setattr(engine, "update_agent", watched)
        state = build_network(three_agent_cycle())
        apply_assignment(state, Assignment(offsets={"A": 7, "B": -4, "C": 2}))
        run(state, 3.0)
        acted = [ev for ev in updates if not ev.payload.get("exempt")]
        assert len(acted) > 10
        assert len(calls) >= len(acted)

    def test_wake_times_match_every_wake_processed(self):
        state = build_network(two_agent_kernel(10, 10))
        run(state, 5.0)
        for agent in state.agents.values():
            t = rng.exponential(agent.mean_wait, agent.event_key, 0)
            for n in range(1, agent.event_count + 1):
                assert t < 5.0
                t = t + rng.exponential(agent.mean_wait, agent.event_key, n)
            assert agent.next_time == t >= 5.0


def cycle_state(**kwargs):
    """Balanced three-agent cycle at rate 300; every agent's first wake is at 0.5."""
    state = build_network(three_agent_cycle(**kwargs))
    for agent in state.agents.values():
        agent.next_time = 0.5
    return state


def run_both_ways(state, horizon):
    """`run` on the state and `reference_run` on a clone; they must agree."""
    ref = state.clone()
    run(state, horizon)
    reference_run(ref, horizon)
    assert_same_run(state, ref)
    return state


def first_update_after(state, agent_id, t):
    return min(ev.time for ev in state.log
               if ev.kind == "AgentUpdate" and ev.payload["agent"] == agent_id and ev.time > t)


class TestWakeSources:
    """Each change that can unbalance a dormant agent's view wakes it."""

    def test_nonzero_shock_wakes_the_sink(self):
        # A moved ab without settling and, at gain 0, never settles with B,
        # so B stays balanced in its stale view until the shock refreshes it.
        spec = replace(three_agent_cycle(), shocks=(ShockSpec(1.25, "ab", 5),))
        state = build_network(spec)
        state.agents["A"].gain = Fraction(0)
        state.channels["ab"].rate = 310
        run_both_ways(state, 3.0)
        assert first_update_after(state, "B", 1.25) < 3.0

    def test_multiplier_change_wakes_both_endpoints(self):
        spec = three_agent_cycle().with_extra_policy(
            [PolicyAction(1.25, "set_multiplier", "ab", Fraction(3, 2))])
        state = build_network(spec)
        run_both_ways(state, 3.0)
        assert first_update_after(state, "A", 1.25) < 3.0
        assert first_update_after(state, "B", 1.25) < 3.0

    @pytest.mark.parametrize("later", [(), (ShockSpec(2.5, "bc", 0),)],
                             ids=["last-item", "shock-pending"])
    def test_multiplier_change_skips_wakes_to_its_own_time(self, later):
        # Every agent is dormant by 1.25. The multiplier change wakes A and B,
        # whose skipped wakes run up to 1.25: not up to the next pending
        # item's time, which is 2.5 with the shock and infinite without it.
        # The shock is a zero one, which wakes nobody.
        spec = replace(three_agent_cycle(), shocks=later).with_extra_policy(
            [PolicyAction(1.25, "set_multiplier", "ab", Fraction(3, 2))])
        state = build_network(spec)
        run_both_ways(state, 4.0)
        assert not [ev for ev in state.log if ev.kind == "AgentUpdate" and ev.time < 1.25]
        assert first_update_after(state, "A", 1.25) < 2.5
        assert first_update_after(state, "B", 1.25) < 2.5

    def test_adjustment_wakes_partner_past_a_tied_wake(self):
        # At 0.5, A (lower id) goes dormant first; C then adjusts ca, which
        # unbalances A. A's tied wake at 0.5 came before C's, so A acts at
        # its next wake, not again at 0.5.
        state = cycle_state()
        apply_assignment(state, Assignment(offsets={"C": 6}))
        run_both_ways(state, 2.0)
        assert [ev.payload["agent"] for ev in state.log if ev.kind == "AgentUpdate"][0] == "C"
        assert first_update_after(state, "A", 0.0) > 0.5

    def test_adjustment_wakes_dormant_partner(self):
        # B goes dormant at 0.25; A's adjustment at 0.5 unbalances it.
        state = cycle_state()
        state.agents["B"].next_time = 0.25
        apply_assignment(state, Assignment(offsets={"A": 6}))
        run_both_ways(state, 2.0)
        assert first_update_after(state, "B", 0.0) > 0.5


def stepped(state, n_terms):
    """The first `n_terms` sheets of `state` through `record_terms`."""
    terms = record_terms(state)
    return [next(terms) for _ in range(n_terms)]


def clocks(state):
    return {aid: (a.event_count, a.next_time) for aid, a in state.agents.items()}


def perturbed(state):
    """The state with a positive offset on every agent that has an adjustable channel."""
    ids = [aid for aid in state.agent_order if state.adjustable_outgoing[aid]]
    apply_assignment(state, Assignment(offsets={aid: 3 + i for i, aid in enumerate(ids)}))
    return state


class TestWakeTables:
    """Clones read wake times off the tables they share; a fresh state draws them."""

    @pytest.mark.parametrize("seed", [3, 8])
    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_clones_step_as_fresh_states(self, name, seed):
        spec = BUILTIN_SCENARIOS[name]().with_seed(seed)
        base = build_network(spec)

        def same_steps(state, ref, n_terms):
            assert stepped(state, n_terms) == stepped(ref, n_terms)
            assert event_trace(state.log) == event_trace(ref.log)
            assert clocks(state) == clocks(ref)
            assert ref.wake_times is None and state.wake_times is base.wake_times

        # Each clone reads further along the table than the one before.
        for n_terms, perturb in ((2, False), (5, True), (6, False)):
            clone, ref = base.clone(), build_network(spec)
            if perturb:
                perturbed(clone)
                perturbed(ref)
            same_steps(clone, ref, n_terms)

        # One clock moved off its table: that agent draws, the others read.
        clone, ref = perturbed(base.clone()), perturbed(build_network(spec))
        aid = next(aid for aid in clone.agent_order if clone.adjustable_outgoing[aid])
        for state in (clone, ref):
            state.agents[aid].next_time /= 2
        assert clone.wake_times[aid][0] != clone.agents[aid].next_time
        same_steps(clone, ref, 6)

        # A mid-run checkpoint's clone steps on the table. The cuts have
        # refreshed every snapshot, so a rate moved there sets agents waking.
        checkpoints = []
        run_record(perturbed(base.clone()), 3, checkpoints)
        resumed, ref = checkpoints[2].clone(), perturbed(build_network(spec))
        assert resumed.wake_times is base.wake_times
        stepped(ref, 2)
        opened = len(ref.log)
        for state in (resumed, ref):
            state.channels[state.adjustable_outgoing[aid][0]].rate += 5
            run(state, 4 * spec.term_length)
        assert any(ev.kind == "AgentUpdate" for ev in resumed.log)
        assert event_trace(resumed.log) == event_trace(ref.log[opened:])
        assert clocks(resumed) == clocks(ref)

    @pytest.mark.parametrize("inclusive", [False, True])
    def test_skip_to_a_wake_time_stops_where_drawing_does(self, inclusive):
        # Skips end at another agent's wake time or at a term end; one equal
        # to a wake of the agent decides between bisecting left and right.
        spec = three_agent_cycle()
        base = build_network(spec)
        stepped(base.clone(), 3)
        for k, until in enumerate(base.wake_times["A"][:4]):
            on, off = base.clone(), build_network(spec)
            for state in (on, off):
                engine._skip_wakes(state, state.agents["A"], until, inclusive)
            assert clocks(on) == clocks(off)
            assert on.agents["A"].event_count == k + inclusive


def json_safe(value):
    """The trace's former payload copy: `Fraction`s to `str`, tuples to lists."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {k: json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    return value


def copied_trace(log):
    """`event_trace` as it was written: copy each payload, then `json.dumps` it."""
    return "".join(json.dumps({"t": ev.time, "seq": ev.seq, "kind": ev.kind,
                               **{k: json_safe(v) for k, v in ev.payload.items()}},
                              sort_keys=True) + "\n" for ev in log)


PAYLOAD_LEAVES = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
                  | st.fractions(max_denominator=10**6))
PAYLOAD_VALUES = st.recursive(
    PAYLOAD_LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
EVENTS = st.builds(Event, st.floats(allow_nan=False), st.integers(0, 10**6),
                   st.sampled_from(["AgentUpdate", "Settlement", "Shock", "Issue", "Policy"]),
                   st.dictionaries(st.text(max_size=5) | st.sampled_from(["t", "seq", "kind"]),
                                   PAYLOAD_VALUES, max_size=4))


class TestTraceEncoding:
    """`event_trace` gives the bytes of the former copy-then-dump rendering."""

    @given(log=st.lists(EVENTS, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_copying_trace(self, log):
        assert event_trace(log) == copied_trace(log)

    def test_nested_fractions(self):
        log = [Event(0.5, 0, "Policy", {"value": Fraction(3, 10),
                                        "nested": {"b": [Fraction(-1, 3), (Fraction(2), 1)]}})]
        assert event_trace(log) == (
            '{"kind": "Policy", "nested": {"b": ["-1/3", ["2", 1]]}, "seq": 0, "t": 0.5, '
            '"value": "3/10"}\n')
        assert event_trace(log) == copied_trace(log)

    @pytest.mark.parametrize("value", [{1, 2}, object(), b"bytes", [Decimal(1)]],
                             ids=["set", "object", "bytes", "decimal-in-list"])
    def test_unknown_payload_type_raises(self, value):
        log = [Event(0.0, 0, "Issue", {"amount": value})]
        with pytest.raises(TypeError, match="is not JSON serializable"):
            copied_trace(log)
        with pytest.raises(TypeError, match="is not JSON serializable"):
            event_trace(log)


# Amount pairs as the engine logs them, and values that equal them in Python but not in JSON.
AMOUNT_PAIRS = st.lists(st.tuples(st.text(max_size=3), st.integers(-2, 2) | st.booleans() | st.floats(-2, 2)
                                  | st.fractions(max_denominator=3)) | PAYLOAD_VALUES, max_size=3)


@st.composite
def observer_logs(draw):
    """Logs of observer cuts mixed with `EVENTS`. A cut draws its `a`, `b` and amount pairs
    each from a small pool, and copies the list, as a replayed cut does, so that they repeat
    as the same objects; a pool's entries may be equal in Python and still differ in JSON. A
    few cuts break the observer shape: `observer` is 1, or the payload has another key."""
    ends = st.lists(PAYLOAD_LEAVES, min_size=1, max_size=2)
    a_pool, b_pool, pairs_pool = draw(ends), draw(ends), draw(st.lists(AMOUNT_PAIRS, min_size=1, max_size=3))
    log = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 3)) == 0:
            log.append(draw(EVENTS))
            continue
        a, b, amounts = (draw(st.sampled_from(pool)) for pool in (a_pool, b_pool, pairs_pool))
        payload = {"a": a, "b": b, "amounts": list(amounts), "observer": True, "term": draw(PAYLOAD_VALUES)}
        shape = draw(st.sampled_from(["cut", "cut", "cut", "observer-1", "extra-key"]))
        if shape == "observer-1":
            payload["observer"] = 1
        elif shape == "extra-key":
            payload[draw(st.sampled_from(["t", "seq", "kind", "x"]))] = draw(PAYLOAD_LEAVES)
        log.append(Event(draw(st.floats()), draw(st.integers(0, 10**6)),
                         draw(st.sampled_from(["Settlement", "Shock"])), payload))
    return log


class TestObserverCutTrace:
    """A repeated observer cut is rendered once; its lines stay those of the copying trace."""

    @given(log=observer_logs())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_copying_trace(self, log):
        assert event_trace(log) == copied_trace(log)

    def test_equal_pairs_of_other_types_render_apart(self):
        pairs = [("ab", 1)]
        log = [Event(1.0, k, "Settlement", {"a": None, "b": None, "amounts": amounts, "observer": True,
                                             "term": k})
               for k, amounts in enumerate([list(pairs), list(pairs), [("ab", True)], [("ab", 1.0)]])]
        assert event_trace(log) == copied_trace(log)
        assert [json.loads(line)["amounts"] for line in event_trace(log).splitlines()] == [
            [["ab", 1]], [["ab", 1]], [["ab", True]], [["ab", 1.0]]]

    @pytest.mark.parametrize("time", [float("inf"), float("-inf"), float("nan"), 0.1, -0.0])
    def test_replayed_cuts_of_a_run(self, time):
        state = build_network(three_agent_cycle())
        run_record(state, 6)
        cuts = [ev for ev in state.log if ev.payload.get("observer")]
        assert len({tuple(map(id, ev.payload["amounts"])) for ev in cuts}) < len(cuts)  # some replayed
        log = [*state.log, cuts[-1]._replace(time=time)]
        assert event_trace(log) == copied_trace(log)

    def test_unknown_term_type_raises(self):
        log = [Event(1.0, 0, "Settlement", {"a": None, "b": None, "amounts": [], "observer": True,
                                            "term": {1, 2}})]
        with pytest.raises(TypeError, match="is not JSON serializable"):
            event_trace(log)
