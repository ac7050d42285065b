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
Most wakes therefore find nothing to correct; `run` says how it keeps such
agents dormant, exactly, and how the recorder's observer cuts fit its loop.

Dormancy and the replay of a quiet observer cut (`settle_all`) rest on one
rule: once it runs, a state changes only through the engine's operations,
each of which logs an event when it moves a rate, multiplier, pot, stock or
snapshot. While ``state.seq`` stands still, nothing has changed.

The engine is strictly sequential over the event order. Clones of one state
share its growing wake tables: do not step them from different threads.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import lcm
from typing import Collection, Iterable, Iterator, Sequence

from . import rng
from .network import _ZERO, Agent, Channel, Event, NetworkState, _add_piece, _elapsed, accrue, issue
from .scenario import PolicyAction, ShockSpec

_NO_EVENT = float("inf")


def apportion(total: int, weights: Sequence[int]) -> list[int]:
    """Split an integer total proportionally to non-negative integer weights.

    Largest-remainder rounding, so the parts sum to the total exactly. Ties go
    to the lowest index. A zero weight vector splits equally. Each
    magnitude * w_i / W splits by ``divmod`` into a base and a remainder
    r_i / W; base - share is -r_i / W, so ordering the leftover units by
    (-r_i, i) is the largest-remainder order with ties to the lowest index.
    """
    if not weights:
        raise ValueError("apportion() needs at least one weight")
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
    arithmetic in plain integers over the channels' multiplier pairs: whole
    multipliers add to an integer part, the others to one unreduced ratio.
    It returns an int whenever the multipliers cancel, and otherwise builds
    the one ``Fraction`` of its result; this is the innermost loop of the
    simulation.
    """
    channels = state.channels
    whole = 0
    num = 0
    den = 1
    for cid in state.outgoing[agent_id]:
        ch = channels[cid]
        d = ch.mult_den
        if d == 1:
            whole += ch.rate * ch.mult_num
        else:
            num = num * d + ch.rate * ch.mult_num * den
            den *= d
    for cid in state.incoming[agent_id]:
        ch = channels[cid]
        d = ch.mult_den
        if d == 1:
            whole -= ch.snap_rate_sink * ch.mult_num
        else:
            num = num * d - ch.snap_rate_sink * ch.mult_num * den
            den *= d
    if num == 0:
        return whole
    if num % den == 0:
        return whole + num // den
    return Fraction(whole * den + num, den)


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
    round away from zero). The weights come from the channels' multiplier
    pairs. A nonzero residual is the only ``Fraction`` built; a zero one is
    the shared `network._ZERO`. A lone channel takes the whole demand, as
    the apportionment would give it, so it gets the units directly, clamped
    at its rate: no weights are built.
    """
    gn, gd = gain.numerator, gain.denominator
    if gn < 0:
        raise ValueError("gain must be non-negative")
    dd = deficit.denominator
    cd = carry.denominator
    den = gd * dd * cd
    num = carry.numerator * gd * dd - gn * deficit.numerator * cd
    deltas = {ch.id: 0 for ch in channels}
    applied = 0
    units = num // den if num >= 0 else -(-num // den)
    if units and len(channels) == 1:
        ch = channels[0]
        applied = deltas[ch.id] = max(units, -ch.rate)
    elif units and channels:
        scale = lcm(*(ch.mult_den for ch in channels))
        weights = [ch.rate * ch.mult_num * (scale // ch.mult_den) for ch in channels]
        for ch, part in zip(channels, apportion(units, weights)):
            if ch.rate + part < 0:
                part = -ch.rate
            deltas[ch.id] = part
            applied += part
    rest = num - applied * den
    return deltas, Fraction(rest, den) if rest else _ZERO


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
    if not state.pair_channels.get(key):
        raise ValueError(f"no channel connects {agent_a!r} and {agent_b!r}")
    _settle_pair(state, key, time)
    return state


def _settle_pair(state: NetworkState, key: tuple[str, str], time: float) -> None:
    """`settle` of the sorted agent pair `key`, which a channel connects, past its checks."""
    amounts = _settle_channels(state, state.pair_channels[key], time)
    state.append_event(time, "Settlement", {"a": key[0], "b": key[1], "amounts": amounts,
                                            "observer": False})


def _settle_channels(state: NetworkState, channel_ids: Sequence[str], time: float) -> list[tuple[str, int]]:
    """Move each channel's whole accrued units from source to sink at `time`.

    Each channel is first accrued up to `time` as `accrue` does, which says
    why that is exact, with the work that is the same for many channels done
    once per call: `time` is converted when the first channel accrues and
    the elapsed ratio once per run of equal ``accrued_until`` (after an
    observer cut, nearly every channel shares the cut's time). Then
    ``accrued_num // accrued_den``
    floors, which is truncation toward zero as accrual is never negative;
    the sub-unit remainder stays in the numerator. The amount also goes on
    the channel's and both agents' running tallies.
    """
    agents = state.agents
    channels = state.channels
    amounts = []
    time_num = until_seen = None
    for cid in channel_ids:
        ch = channels[cid]
        until = ch.accrued_until
        if time > until:
            if ch.rate:
                if until != until_seen:
                    if time_num is None:
                        time_num, time_den = time.as_integer_ratio()
                    elapsed, elapsed_den = _elapsed(time_num, time_den, until)
                    until_seen = until
                _add_piece(ch, elapsed, elapsed_den)
            ch.accrued_until = time
        amount = ch.accrued_num // ch.accrued_den
        if amount:
            source, sink = agents[ch.source], agents[ch.sink]
            source.stock -= amount
            source.paid += amount
            sink.stock += amount
            sink.received += amount
            ch.settled += amount
            ch.accrued_num -= amount * ch.accrued_den
        ch.snap_rate_sink = ch.rate
        amounts.append((cid, amount))
    return amounts


def settle_all(state: NetworkState, time: float, *, term: int) -> NetworkState:
    """Forced settlement of every channel at once, in `channel_order`: the
    recorder's global cut of `term`.

    A cut replays the one before it, bit for bit, when nothing has been
    logged since (see the module docstring), the time since it is positive
    and the same integer ratio as that cut's own, and that cut came after
    nothing logged too and left every pot as it found it: each piece was then
    whole units, so the same piece gives the same amounts and pots again.
    """
    last = state._last_cut
    replay = pots = None
    if last is not None and last[0] == state.seq and time > last[1]:
        chans = state.channels.values()
        elapsed = _elapsed(*time.as_integer_ratio(), last[1])
        if last[2] is not None and last[2][0] == elapsed:
            replay = last[2]
        else:
            pots = [(ch.accrued_num, ch.accrued_den, ch.accrued_until) for ch in chans]
    if replay is None:
        amounts = _settle_channels(state, state.channel_order, time)
        if pots is not None and pots == [(ch.accrued_num, ch.accrued_den, last[1]) for ch in chans]:
            replay = (elapsed, tuple(amounts), *_cut_moves(state, amounts))
    else:
        _, amounts, agent_moves, channel_moves = replay
        for agent, inflow, outflow in agent_moves:
            agent.stock += inflow - outflow
            agent.received += inflow
            agent.paid += outflow
        for ch, amount in channel_moves:
            ch.settled += amount
        for ch in chans:
            ch.accrued_until = time
        amounts = list(amounts)
    state.append_event(time, "Settlement", {"a": None, "b": None, "amounts": amounts,
                                            "observer": True, "term": term})
    state._last_cut = (state.seq, time, replay)
    return state


def _cut_moves(state: NetworkState, amounts: list[tuple[str, int]]) -> tuple[list, list]:
    """A cut's `amounts` as each agent's (agent, inflow, outflow) and each (channel, amount), nonzero."""
    moved = [(state.channels[cid], amount) for cid, amount in amounts if amount]
    flows = {aid: [agent, 0, 0] for aid, agent in state.agents.items()}
    for ch, amount in moved:
        flows[ch.sink][1] += amount
        flows[ch.source][2] += amount
    return [flow for flow in flows.values() if flow[1] or flow[2]], moved


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
    gains, loses = (agent_id, counterparty) if amount >= 0 else (counterparty, agent_id)
    moved = abs(amount)
    if moved:
        winner, loser = state.agents[gains], state.agents[loses]
        winner.stock += moved
        winner.received += moved
        loser.stock -= moved
        loser.paid += moved
        ch.snap_rate_sink = ch.rate
    state.append_event(time, "Shock", {
        "channel": channel_id, "agent": agent_id, "counterparty": counterparty,
        "amount": moved, "sink": gains, "source": loses,
    })
    return state


def next_event(state: NetworkState, awake: Collection[str] | None = None) -> tuple[str, float]:
    """Agent with the earliest pending event time; ties go to the lower id.

    `awake` limits the scan to those agents, in any order; by default every
    agent takes part. When every scanned wake time is infinite (a clock that
    overflowed), the lowest id is returned at infinity.
    """
    agents = state.agents
    best_id = None
    best_t = _NO_EVENT
    for aid in state.agent_order if awake is None else awake:
        t = agents[aid].next_time
        if t < best_t or (t == best_t and best_id is not None and aid < best_id):
            best_id, best_t = aid, t
    if best_id is None:
        scanned = state.agent_order if awake is None else awake
        if not scanned:
            raise ValueError("network has no agents")
        return min(scanned), _NO_EVENT
    return best_id, best_t


def update_agent(state: NetworkState, agent_id: str, now: float,
                 deficit: Fraction | int | None = None) -> Event:
    """Process one wake that acts: adjust and settle, or run issuance.

    A non-exempt agent reads its observed deficit, equilibrates its adjustable
    outgoing channels, applies the deltas to their true rates and settles
    with every partner it adjusted against. The central bank executes its
    due issuance schedule entries instead. `run` calls this only for wakes
    that have something to log; it skips the others, and passes the
    `observed_deficit` it has already read, which is computed here otherwise.
    """
    agent = state.agents[agent_id]
    state.now = now
    if agent.continuity_exempt:
        issued = _run_issuance(state, now)
        event = state.append_event(now, "AgentUpdate", {"agent": agent_id, "exempt": True, "issued": issued})
    else:
        if deficit is None:
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
            _settle_pair(state, (agent_id, partner) if agent_id < partner else (partner, agent_id),
                         now)
    n = agent.event_count
    agent.event_count = n + 1
    table = state.wake_times[agent_id] if state.wake_times is not None else ()
    if n < len(table) and table[n] == now:  # the clock is on its table
        _extend(table, agent, now, True)
        agent.next_time = table[n + 1]
    else:
        agent.next_time = now + rng.exponential(agent.mean_wait, agent.event_key, n + 1)
    return event


def _extend(table: list[float], agent: Agent, until: float, inclusive: bool) -> None:
    """Draw wake times onto `table` until the last is at `until` or past it (past if `inclusive`)."""
    t = table[-1]
    while t < until or (inclusive and t == until):
        t += rng.exponential(agent.mean_wait, agent.event_key, len(table))
        table.append(t)


def _skip_wakes(state: NetworkState, agent: Agent, until: float, inclusive: bool = False) -> None:
    """Consume the agent's wakes before `until`, and at it when `inclusive`.

    Each wake draws the next wait from the agent's counter-keyed stream and
    adds it to the wake time, the same float addition `update_agent` makes,
    so the wake times that follow are bit-identical to processing each one.
    A clock on its wake table reads them there instead: the table is
    non-decreasing (a float addition can absorb a tiny wait), so a bisect
    finds the wake the loop would stop at.
    """
    t = agent.next_time
    n = agent.event_count
    tables = state.wake_times
    if tables is not None:  # None until the first clone: uncloned skips pay one test
        table = tables[agent.id]
        if n < len(table) and table[n] == t:
            _extend(table, agent, until, inclusive)
            n = (bisect_right if inclusive else bisect_left)(table, until, n)
            t = table[n]
    while t < until or (inclusive and t == until):
        n += 1
        t += rng.exponential(agent.mean_wait, agent.event_key, n)
    agent.event_count = n
    agent.next_time = t


def _residual_moves_a_rate(state: NetworkState, agent: Agent) -> bool:
    """Whether equilibrating the agent's carried residual alone moves a rate.

    When it does not, a wake with a zero observed deficit would log all-zero
    deltas and carry the same residual on: a sub-unit remainder, or a
    correction the rate >= 0 clamp blocks. With deficit 0 the demand is the
    residual itself, whose whole units are its truncation toward zero, so
    one below a unit in magnitude moves nothing. A negative one only lowers
    rates, which the clamp keeps at 0, so it moves nothing when every
    adjustable channel is already at rate 0.
    """
    residual = agent.pending_correction
    num = residual.numerator
    if abs(num) < residual.denominator:
        return False
    channels = [state.channels[cid] for cid in state.adjustable_outgoing[agent.id]]
    if num < 0 and not any(ch.rate for ch in channels):
        return False
    deltas, _ = equilibrate(channels, 0, agent.gain, residual)
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
    spec, cursors = state.spec, state.cursors
    for kind, schedule in (("policy", spec.policy), ("securities", spec.securities), ("shock", spec.shocks)):
        if cursors[kind] < len(schedule) and schedule[cursors[kind]].time < best_t:
            best_t, best_kind = schedule[cursors[kind]].time, kind
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
    else:
        spec: ShockSpec = state.spec.shocks[state.cursors["shock"]]
        state.cursors["shock"] += 1
        ch = state.channels[spec.channel]
        inject_shock(state, ch.sink, spec.amount, now, channel_id=spec.channel)
        if spec.amount:
            return spec.channel
    return None


def run(state: NetworkState, horizon: float) -> tuple[NetworkState, list[Event]]:
    """Advance simulated time by `horizon`, processing events in [now, now+horizon).

    Deterministic for a fixed seed; running h1 then h2 is identical to running
    h1 + h2 in one call, with the logs concatenating. The pending policy,
    securities and shock items are read once on entry and again after each
    one runs, as nothing else in the loop moves them.

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
    wakes it skipped, with the draws and float additions each would have made
    (`_skip_wakes`), and rejoins the scan. The central bank's wakes before
    its next issuance entry are consumed in one go, and while that entry
    lies past the end it sleeps out of the scan like a dormant agent.

    At the end every dormant agent's wakes are consumed up to it, so the
    state there is as if every wake had been processed. `run` is this loop
    with one end; `recorder.record_terms` drives it through every term of a
    record and takes the observer cut at each term end before the loop goes
    on. Dormancy survives those cuts: a cut moves stocks, tallies and
    accruals, which no dynamics read, and refreshes snapshots, so only the
    sinks of the channels whose snapshot it changed rejoin the scan.
    """
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    start = len(state.log)
    next(_advance(state, (state.now + horizon,)))
    _catch_up(state)
    return state, state.log[start:]


def _catch_up(state: NetworkState) -> None:
    """Consume every wake before `state.now` that a dormant agent left pending."""
    now = state.now
    for agent in state.agents.values():
        if agent.next_time < now:
            _skip_wakes(state, agent, now)


def _advance(state: NetworkState, ends: Iterable[float]) -> Iterator[None]:
    """The event loop of `run`, through each of `ends` in turn (see `run`).

    Catches up every clock on entry. Yields at each end, with the state as
    `run` leaves it there except that a dormant agent's clock may lag behind
    the end; `_catch_up` consumes its wakes there. The caller may take an
    observer cut before asking for the next end.
    """
    agents = state.agents
    channels = state.channels
    _catch_up(state)
    awake = set(state.agent_order)
    # The central bank, asleep, rejoins the scan in the term of its next issuance entry.
    bank, bank_due = state.central_bank, _NO_EVENT
    # Only `_run_scheduled` moves the policy, securities and shock cursors.
    sched_t, sched_kind = _peek_scheduled(state)
    for end in ends:
        if bank_due < end:
            awake.add(bank)
            _skip_wakes(state, agents[bank], bank_due)
            bank_due = _NO_EVENT
        while True:
            agent_id, agent_t = next_event(state, awake) if awake else ("", _NO_EVENT)
            if min(agent_t, sched_t) >= end:
                break
            if sched_t <= agent_t:
                # Scheduled items precede every agent wake at the same time.
                item_t = sched_t
                changed = _run_scheduled(state, sched_kind, item_t)
                sched_t, sched_kind = _peek_scheduled(state)
                if changed is not None:
                    ch = channels[changed]
                    for aid in (ch.source, ch.sink):
                        if aid not in awake:
                            awake.add(aid)
                            _skip_wakes(state, agents[aid], item_t)
                continue
            agent = agents[agent_id]
            if agent.continuity_exempt:
                due = _next_issuance_time(state)
                if due >= end:
                    awake.remove(agent_id)
                    bank_due = due
                elif due > agent_t:
                    _skip_wakes(state, agent, due)
                else:
                    update_agent(state, agent_id, agent_t)
            elif (deficit := observed_deficit(state, agent_id)) == 0 and (
                    not agent.pending_correction.numerator
                    or not _residual_moves_a_rate(state, agent)):
                awake.remove(agent_id)
            else:
                event = update_agent(state, agent_id, agent_t, deficit)
                for cid, delta in event.payload["deltas"].items():
                    sink = channels[cid].sink
                    if delta and sink not in awake:
                        # A partner's wake at this very time came before this
                        # one when its id is lower (ties go to the lower id).
                        awake.add(sink)
                        _skip_wakes(state, agents[sink], agent_t, inclusive=sink < agent_id)
        state.now = end
        snaps = [ch.snap_rate_sink for ch in channels.values()]
        yield
        for ch, snap in zip(channels.values(), snaps):
            sink = ch.sink
            if ch.snap_rate_sink != snap and sink not in awake:
                awake.add(sink)
                _skip_wakes(state, agents[sink], end)


def _fraction_str(value) -> str:
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


_TRACE_ENCODER = json.JSONEncoder(sort_keys=True, default=_fraction_str)
_OBSERVER_KEYS = {"a", "b", "amounts", "observer", "term"}


def event_trace(log: Sequence[Event]) -> str:
    """Line-delimited JSON rendering of an event log; byte-stable per seed.

    A line holds `t`, `seq`, `kind` and the payload, keys sorted, `Fraction`s as
    their `str`; any other value that JSON cannot hold raises TypeError. A
    replayed observer cut holds the very `a`, `b` and amount pairs of the cut it
    repeats (`settle_all`), so its line up to `seq` is rendered once."""
    encode = _TRACE_ENCODER.encode
    lines, heads = [], {}
    for ev in log:
        p = ev.payload
        if p.keys() == _OBSERVER_KEYS and p["observer"] is True and type(p["amounts"]) is list:
            key = (ev.kind, id(p["a"]), id(p["b"]), *map(id, p["amounts"]))
            if (head := heads.get(key)) is None:  # it keeps `p`, and so every id in `key`, alive
                head = heads[key] = encode({"a": p["a"], "amounts": p["amounts"], "b": p["b"],
                                            "kind": ev.kind, "observer": True})[:-1] + ", ", p
            lines.append(head[0] + encode({"seq": ev.seq, "t": ev.time, "term": p["term"]})[1:] + "\n")
        else:
            lines.append(encode({"t": ev.time, "seq": ev.seq, "kind": ev.kind, **p}) + "\n")
    return "".join(lines)
