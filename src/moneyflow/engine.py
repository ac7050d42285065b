"""Asynchronous adjustment dynamics over the flow network.

Each non-exempt agent wakes at its own exponentially distributed event times,
reads the imbalance it can see straight off the network state
(`observed_deficit`: its own outgoing rates current, its partners' rates as
last settled) and corrects it by moving its own adjustable outgoing rates
(`equilibrate`, over the state's `Channel` objects). Corrections made on
stale information miss, so one agent's fix disturbs its partners and the
adjustment spreads. In the built-in scenarios it dies out within a few
terms of a disturbance (hidden offsets, a shock, a policy change) instead of
reverberating, and a network that starts balanced never adjusts at all.

Most wakes therefore find nothing to correct, or only a residual that cannot
be applied. `run` keeps such agents dormant: out of the event scan and out
of the log, until something changes what they observe. Their wake times come
from counter-keyed streams, so the skipped wakes are consumed later with the
same float additions, and every later event and the state at each run
boundary are exactly as if each wake had been processed.

The engine is strictly sequential over the event order. Independent runs own
their state exclusively and may execute concurrently.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from . import rng
from .network import Agent, Channel, Event, NetworkState, accrue, issue
from .scenario import PolicyAction, ShockSpec

_NO_EVENT = float("inf")


def apportion(total: int, weights: Sequence[Fraction | int]) -> list[int]:
    """Split an integer total proportionally to non-negative weights.

    Largest-remainder rounding, so the parts sum to the total exactly. Ties go
    to the lowest index. A zero weight vector splits equally. The weights are
    brought to one common denominator first, so the split runs in integers.
    """
    if not weights:
        raise ValueError("apportion() needs at least one weight")
    scale = lcm(*(w.denominator for w in weights))
    return _split(total, [w.numerator * (scale // w.denominator) for w in weights])


def _split(total: int, weights: list[int]) -> list[int]:
    """`apportion` over integer weights.

    Each magnitude * w_i / W splits by ``divmod`` into a base and a remainder
    r_i / W; base - share is -r_i / W, so ordering the leftover units by
    (-r_i, i) is the largest-remainder order with ties to the lowest index.
    """
    if any(w < 0 for w in weights):
        raise ValueError("apportion() weights must be non-negative")
    n = len(weights)
    wsum = sum(weights)
    if wsum == 0:
        weights = [1] * n
        wsum = n
    sign = 1 if total >= 0 else -1
    magnitude = abs(total)
    base = []
    remainders = []
    for w in weights:
        part, remainder = divmod(magnitude * w, wsum)
        base.append(part)
        remainders.append(remainder)
    leftover = magnitude - sum(base)
    if leftover:
        by_remainder = sorted(range(n), key=lambda i: (-remainders[i], i))
        for i in by_remainder[:leftover]:
            base[i] += 1
    return [sign * b for b in base]


def observed_deficit(state: NetworkState, agent_id: str) -> Fraction | int:
    """The imbalance the agent can see: observed outflow minus observed inflow.

    Its own outgoing rates are current; each incoming rate is the one its
    partner had at their last settlement. Both are weighted by the channel
    multipliers, which are public policy and always current. Exact rational
    arithmetic in plain integers, returning an int whenever the multipliers
    cancel; this is the innermost loop of the simulation.
    """
    channels = state.channels
    whole = 0
    num = 0
    den = 1
    for cid in state.outgoing[agent_id]:
        ch = channels[cid]
        m = ch.multiplier
        if m.denominator == 1:
            whole += ch.rate * m.numerator
        else:
            num = num * m.denominator + ch.rate * m.numerator * den
            den *= m.denominator
    for cid in state.incoming[agent_id]:
        ch = channels[cid]
        m = ch.multiplier
        if m.denominator == 1:
            whole -= ch.snap_rate_sink * m.numerator
        else:
            num = num * m.denominator - ch.snap_rate_sink * m.numerator * den
            den *= m.denominator
    if num == 0:
        return whole
    if num % den == 0:
        return whole + num // den
    return whole + Fraction(num, den)


def equilibrate(channels: Sequence[Channel], deficit: Fraction | int, gain: Fraction,
                carry: Fraction | int = 0) -> tuple[dict[str, int], Fraction]:
    """Correction an agent applies to its adjustable outgoing `channels`.

    The correction demand -gain * deficit (plus any carried residual) is
    distributed over the channels proportionally to their effective rates,
    rounded to whole minor units by largest remainder, and clamped so no rate
    goes below zero. Returns the integer delta of every channel, by channel
    id in the given order, and the exact residual: whatever could not be
    applied, that is the sub-unit remainder of the apportionment and any
    correction blocked by the clamp, so sum(deltas) + residual ==
    -gain * deficit + carry.

    The demand is held as an unreduced integer ratio num / den and truncated
    toward zero explicitly (it may be negative, where floor division would
    round away from zero); the residual is the only ``Fraction`` built.
    """
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
        for ch, part in zip(channels, _split(units, weights)):
            if ch.rate + part < 0:
                part = -ch.rate
            deltas[ch.id] = part
            applied += part
    return deltas, Fraction(num - applied * den, den)


def settle(state: NetworkState, agent_a: str, agent_b: str, time: float) -> NetworkState:
    """Bilateral settlement: flush accrued flow and refresh the sink snapshots.

    Settles every channel between the two agents. Accrued flow transfers in
    whole minor units, rounded toward zero; the remainder stays in the
    channel's accrual pot so nothing is lost across settlements.
    """
    for aid in (agent_a, agent_b):
        if aid not in state.agents:
            raise KeyError(f"unknown agent {aid!r}")
    key = (agent_a, agent_b) if agent_a < agent_b else (agent_b, agent_a)
    channel_ids = state.pair_channels.get(key)
    if not channel_ids:
        raise ValueError(f"no channel connects {agent_a!r} and {agent_b!r}")
    amounts = _settle_channels(state, channel_ids, time)
    state.append_event(time, "Settlement", {"a": key[0], "b": key[1], "amounts": amounts,
                                            "observer": False})
    return state


def _settle_channels(state: NetworkState, channel_ids: Sequence[str], time: float) -> list[tuple[str, int]]:
    """Move each channel's whole accrued units from source to sink at `time`.

    ``accrued_num // accrued_den`` floors, which equals truncation toward zero
    because accrual is never negative: rates are >= 0 (validated at build,
    clamped in `equilibrate`, checked in assignments), multipliers are >= 0
    (validated at build and for policies) and `accrue` adds only over
    elapsed time > 0. The sub-unit remainder stays in the numerator.
    """
    amounts = []
    for cid in channel_ids:
        ch = state.channels[cid]
        accrue(ch, time)
        amount = ch.accrued_num // ch.accrued_den
        if amount:
            state.agents[ch.source].stock -= amount
            state.agents[ch.sink].stock += amount
            ch.accrued_num -= amount * ch.accrued_den
        ch.snap_rate_sink = ch.rate
        amounts.append((cid, amount))
    return amounts


def settle_all(state: NetworkState, time: float, *, term: int) -> NetworkState:
    """Forced settlement of every channel at once: the recorder's global cut of `term`."""
    amounts = _settle_channels(state, sorted(state.channels), time)
    state.append_event(time, "Settlement", {"a": None, "b": None, "amounts": amounts,
                                            "observer": True, "term": term})
    return state


def inject_shock(state: NetworkState, agent_id: str, amount: int, time: float,
                 *, channel_id: str) -> NetworkState:
    """One-off redistribution between an agent and a counterparty on a channel.

    A positive amount credits `agent_id`. Conservation always holds: shocks
    move existing money, they never create it. A zero amount is a pure log
    entry with no side effects. Nonzero shocks refresh the channel's
    settlement snapshot, like any settlement.
    """
    if agent_id not in state.agents:
        raise KeyError(f"unknown agent {agent_id!r}")
    ch = state.channels.get(channel_id)
    if ch is None:
        raise KeyError(f"unknown channel {channel_id!r}")
    if agent_id not in (ch.source, ch.sink):
        raise ValueError(f"channel {channel_id!r} does not touch agent {agent_id!r}")
    counterparty = ch.sink if agent_id == ch.source else ch.source
    if amount != 0:
        state.agents[agent_id].stock += amount
        state.agents[counterparty].stock -= amount
        ch.snap_rate_sink = ch.rate
    gains, loses = (agent_id, counterparty) if amount >= 0 else (counterparty, agent_id)
    state.append_event(time, "Shock", {
        "channel": channel_id, "agent": agent_id, "counterparty": counterparty,
        "amount": abs(amount), "sink": gains, "source": loses,
    })
    return state


def next_event(state: NetworkState, awake: Iterable[str] | None = None) -> tuple[str, float]:
    """Agent with the earliest pending event time; ties go to the lower id.

    `awake` limits the scan to those agents, in any order; by default every
    agent takes part.
    """
    agents = state.agents
    best_id = None
    best_t = _NO_EVENT
    for aid in state.agent_order if awake is None else awake:
        t = agents[aid].next_time
        if t < best_t or (t == best_t and best_id is not None and aid < best_id):
            best_id, best_t = aid, t
    if best_id is None:
        raise ValueError("network has no agents")
    return best_id, best_t


def update_agent(state: NetworkState, agent_id: str, now: float) -> Event:
    """Process one wake that acts: adjust and settle, or run issuance.

    A non-exempt agent reads its observed deficit, equilibrates its adjustable
    outgoing channels, applies the deltas to their true rates and settles
    with every partner it adjusted against. The central bank executes its
    due issuance schedule entries instead. `run` calls this only for wakes
    that have something to log; it skips the others.
    """
    agent = state.agents[agent_id]
    state.now = now
    if agent.continuity_exempt:
        issued = _run_issuance(state, now)
        event = state.append_event(now, "AgentUpdate", {"agent": agent_id, "exempt": True, "issued": issued})
    else:
        deficit = observed_deficit(state, agent_id)
        channels = [state.channels[cid] for cid in state.adjustable_outgoing[agent_id]]
        deltas, residual = equilibrate(channels, deficit, agent.gain, agent.pending_correction)
        agent.pending_correction = residual
        partners = set()
        for ch in channels:
            delta = deltas[ch.id]
            if delta:
                accrue(ch, now)
                ch.rate += delta
                partners.add(ch.sink)
        event = state.append_event(now, "AgentUpdate", {
            "agent": agent_id,
            "deficit": deficit,
            "deltas": deltas,
            "residual": residual,
        })
        for partner in sorted(partners):
            settle(state, agent_id, partner, now)
    agent.event_count += 1
    agent.next_time = now + rng.exponential(agent.mean_wait, agent.event_key, agent.event_count)
    return event


def _skip_wakes(agent: Agent, until: float, inclusive: bool = False) -> None:
    """Consume the agent's wakes before `until`, and at it when `inclusive`.

    Each wake draws the next wait from the agent's counter-keyed stream and
    adds it to the wake time, the same float addition `update_agent` makes,
    so the wake times that follow are bit-identical to processing each one.
    """
    t = agent.next_time
    n = agent.event_count
    while t < until or (inclusive and t == until):
        n += 1
        t += rng.exponential(agent.mean_wait, agent.event_key, n)
    agent.event_count = n
    agent.next_time = t


def _residual_moves_a_rate(state: NetworkState, agent: Agent) -> bool:
    """Whether equilibrating the agent's carried residual alone moves a rate.

    When it does not, a wake with a zero observed deficit would log all-zero
    deltas and carry the same residual on: a sub-unit remainder, or a
    correction the rate >= 0 clamp blocks.
    """
    channels = [state.channels[cid] for cid in state.adjustable_outgoing[agent.id]]
    deltas, _ = equilibrate(channels, 0, agent.gain, agent.pending_correction)
    return any(deltas.values())


def _next_issuance_time(state: NetworkState) -> float:
    schedule = state.spec.issuance
    cursor = state.cursors["issuance"]
    return schedule[cursor].time if cursor < len(schedule) else _NO_EVENT


def _run_issuance(state: NetworkState, now: float) -> list[int]:
    issued = []
    schedule = state.spec.issuance
    cursor = state.cursors["issuance"]
    while cursor < len(schedule) and schedule[cursor].time <= now:
        issue(state, schedule[cursor].amount, now)
        issued.append(schedule[cursor].amount)
        cursor += 1
    state.cursors["issuance"] = cursor
    return issued


def _peek_scheduled(state: NetworkState) -> tuple[float, str]:
    """Earliest pending exact-time item: policy change, securities entry, shock."""
    best_t, best_kind = _NO_EVENT, ""
    policy = state.spec.policy
    if state.cursors["policy"] < len(policy):
        t = policy[state.cursors["policy"]].time
        if t < best_t:
            best_t, best_kind = t, "policy"
    securities = state.spec.securities
    if state.cursors["securities"] < len(securities):
        t = securities[state.cursors["securities"]].time
        if t < best_t:
            best_t, best_kind = t, "securities"
    shocks = state.spec.shocks
    if state.cursors["shock"] < len(shocks):
        t = shocks[state.cursors["shock"]].time
        if t < best_t:
            best_t, best_kind = t, "shock"
    return best_t, best_kind


def _run_scheduled(state: NetworkState, kind: str, now: float) -> str | None:
    """Execute the earliest scheduled item.

    Returns the channel whose endpoints may now observe a different deficit
    (a multiplier change or a nonzero shock), or None.
    """
    state.now = now
    if kind == "policy":
        action: PolicyAction = state.spec.policy[state.cursors["policy"]]
        state.cursors["policy"] += 1
        if action.kind == "set_multiplier":
            ch = state.channels[action.target]
            accrue(ch, now)
            ch.multiplier = action.value
        else:
            state.rates[action.target] = action.value
        state.append_event(now, "Policy", {"action": action.kind, "target": action.target,
                                           "value": action.value})
        if action.kind == "set_multiplier":
            return action.target
    elif kind == "securities":
        entry = state.spec.securities[state.cursors["securities"]]
        state.cursors["securities"] += 1
        state.securities_outstanding += entry.amount
        state.append_event(now, "Issue", {"agent": None, "amount": entry.amount,
                                          "instrument": "securities",
                                          "outstanding": state.securities_outstanding})
    elif kind == "shock":
        spec: ShockSpec = state.spec.shocks[state.cursors["shock"]]
        state.cursors["shock"] += 1
        ch = state.channels[spec.channel]
        inject_shock(state, ch.sink, spec.amount, now, channel_id=spec.channel)
        if spec.amount:
            return spec.channel
    else:  # pragma: no cover - internal misuse
        raise ValueError(f"unknown scheduled kind {kind!r}")
    return None


def run(state: NetworkState, horizon: float) -> tuple[NetworkState, list[Event]]:
    """Advance simulated time by `horizon`, processing events in [now, now+horizon).

    Deterministic for a fixed seed; running h1 then h2 is identical to running
    h1 + h2 in one call, with the logs concatenating.

    Wakes that cannot act are not logged. A non-exempt agent that wakes with
    a zero observed deficit and either no pending correction or one whose
    `equilibrate` alone moves no rate (a sub-unit remainder, or a correction
    the rate >= 0 clamp blocks) goes dormant: it leaves the scan with that
    wake unconsumed. What such a wake would do depends only on the agent's
    deficit, its own rates and multipliers and its residual, and nothing
    changes those until one of its outgoing rates (only it moves them), an
    incoming snapshot (a settlement with a partner that adjusted towards it,
    or a nonzero shock) or a multiplier on one of its channels (a
    `set_multiplier` policy) changes. Those events wake it: it consumes the
    wakes it skipped and rejoins the scan. The central bank's wakes before
    its next issuance entry are consumed in one go. Dormancy lives only
    inside one call; at the end every dormant agent's wakes are consumed up
    to the horizon, so the state at the boundary is the same as if every
    wake had been processed.
    """
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    end = state.now + horizon
    start = len(state.log)
    agents = state.agents
    channels = state.channels
    awake = set(state.agent_order)
    while True:
        agent_id, agent_t = next_event(state, awake)
        sched_t, sched_kind = _peek_scheduled(state)
        if min(agent_t, sched_t) >= end:
            break
        if sched_t <= agent_t:
            # Scheduled items precede every agent wake at the same time.
            changed = _run_scheduled(state, sched_kind, sched_t)
            if changed is not None:
                ch = channels[changed]
                for aid in (ch.source, ch.sink):
                    if aid not in awake:
                        awake.add(aid)
                        _skip_wakes(agents[aid], sched_t)
            continue
        agent = agents[agent_id]
        if agent.continuity_exempt:
            due = _next_issuance_time(state)
            if due > agent_t:
                _skip_wakes(agent, min(due, end))
            else:
                update_agent(state, agent_id, agent_t)
        elif observed_deficit(state, agent_id) == 0 and (
                agent.pending_correction == 0 or not _residual_moves_a_rate(state, agent)):
            awake.remove(agent_id)
        else:
            event = update_agent(state, agent_id, agent_t)
            for cid, delta in event.payload["deltas"].items():
                sink = channels[cid].sink
                if delta and sink not in awake:
                    # A partner's wake at this very time came before this
                    # one when its id is lower (ties go to the lower id).
                    awake.add(sink)
                    _skip_wakes(agents[sink], agent_t, inclusive=sink < agent_id)
    for aid in state.agent_order:
        if aid not in awake:
            _skip_wakes(agents[aid], end)
    state.now = end
    return state, state.log[start:]


def _fraction_str(value) -> str:
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


_TRACE_ENCODER = json.JSONEncoder(sort_keys=True, default=_fraction_str)


def event_trace(log: Sequence[Event]) -> str:
    """Line-delimited JSON rendering of an event log; byte-stable per seed.

    A line holds `t`, `seq`, `kind` and the payload, keys sorted, `Fraction`s as
    their `str`; any other value that JSON cannot hold raises TypeError."""
    encode = _TRACE_ENCODER.encode
    return "".join([encode({"t": ev.time, "seq": ev.seq, "kind": ev.kind, **ev.payload}) + "\n"
                    for ev in log])
