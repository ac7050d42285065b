"""Monetary flow network: agents, bilateral channels, stocks, issuance.

Money is an exact signed integer count of minor currency units throughout, so
every conservation check is plain integer equality. Stocks may go negative (a
net debt position); continuity is a property of flows, not of stock signs.

Operations mutate the passed state in place and return it; use
``NetworkState.clone()`` when a branch point is needed. All operations are
deterministic functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Mapping, NamedTuple

from . import rng
from .scenario import ScenarioError, ScenarioSpec

# The one zero ``Fraction``: every carried residual of zero (`Agent`,
# `engine.equilibrate`) and every rate a balance sheet does not hold.
_ZERO = Fraction(0)


@dataclass(slots=True)
class Agent:
    """An agent's stock, wake clock and tallies; a dataclass as the engine updates it in place."""

    id: str
    stock: int
    gain: Fraction
    continuity_exempt: bool
    mean_wait: float
    pending_correction: Fraction = _ZERO
    event_count: int = 0
    next_time: float = 0.0
    event_key: int = 0  # pre-mixed rng stream key
    received: int = 0  # money in and out since build, for the recorder's sheets
    paid: int = 0


@dataclass(slots=True)
class Channel:
    """Directed flow with the sink's stale snapshot of its true rate.

    ``rate`` is the current true flow intention in minor units per term; the
    effective flow is rate * multiplier. The multiplier is held as the
    reduced integer pair ``mult_num / mult_den``, which the engine reads
    directly; the `multiplier` property gives it as a ``Fraction``, and
    assigning one to it sets the pair. ``snap_rate_sink`` holds the rate as
    of the last settlement on this channel: between settlements the sink's
    knowledge is deliberately stale (the source always knows its own rate).

    ``accrued_num / accrued_den`` is the exact rational amount of flow earned
    but not yet settled, held as two plain integers and never reduced: the
    denominator is a common multiple of the power-of-two denominators of the
    float times accrued over (times multiplier denominators), so adding the
    next piece is an integer multiply and add rather than a ``Fraction``.
    """

    id: str
    source: str
    sink: str
    rate: int
    mult_num: int
    mult_den: int
    adjustable: bool
    snap_rate_sink: int = 0
    accrued_num: int = 0
    accrued_den: int = 1
    accrued_until: float = 0.0
    settled: int = 0  # money moved by settlements since build

    @property
    def multiplier(self) -> Fraction:
        return Fraction(self.mult_num, self.mult_den)

    @multiplier.setter
    def multiplier(self, value: Fraction) -> None:
        self.mult_num, self.mult_den = value.numerator, value.denominator


class Event(NamedTuple):
    time: float
    seq: int
    kind: str  # AgentUpdate | Settlement | Shock | Issue | Policy
    payload: dict


@dataclass
class NetworkState:
    """The simulation at `now`; a dataclass as the engine mutates it and tests compare by value."""

    spec: ScenarioSpec
    agents: dict[str, Agent]
    channels: dict[str, Channel]
    cumulative_issuance: int = 0
    securities_outstanding: int = 0
    rates: dict[str, Fraction] = field(default_factory=dict)
    now: float = 0.0
    log: list[Event] = field(default_factory=list)
    seq: int = 0
    cursors: dict[str, int] = field(default_factory=lambda: {"issuance": 0, "securities": 0, "policy": 0, "shock": 0})
    # Shared across clones; immutable after build, but `wake_times` grows.
    agent_order: tuple[str, ...] = ()
    channel_order: tuple[str, ...] = ()  # sorted ids, the order of an observer cut
    outgoing: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    incoming: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    adjustable_outgoing: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    pair_channels: Mapping[tuple[str, str], tuple[str, ...]] = field(default_factory=dict)
    central_bank: str = ""
    # Per agent, its wake times W[n] = W[n-1] + exponential(mean_wait,
    # event_key, n), extended on demand; built by the first clone.
    wake_times: dict[str, list[float]] | None = field(default=None, compare=False, repr=False)
    # The last observer cut, (seq after it, time, replay or None), which
    # `engine.settle_all` may replay; `clone` leaves it out.
    _last_cut: tuple | None = field(default=None, compare=False, repr=False)

    def clone(self) -> "NetworkState":
        """Independent copy sharing the index structures and the wake tables.

        The first clone starts the tables, so that clones draw each wait once.
        Every field is passed explicitly: building the slotted records
        directly is several times cheaper than `copy.copy`, which goes
        through `__reduce_ex__`.
        """
        if self.wake_times is None:
            self.wake_times = {aid: [rng.exponential(a.mean_wait, a.event_key, 0)]
                               for aid, a in self.agents.items()}
        return NetworkState(
            self.spec,
            {k: Agent(a.id, a.stock, a.gain, a.continuity_exempt, a.mean_wait,
                      a.pending_correction, a.event_count, a.next_time, a.event_key,
                      a.received, a.paid)
             for k, a in self.agents.items()},
            {k: Channel(c.id, c.source, c.sink, c.rate, c.mult_num, c.mult_den, c.adjustable,
                        c.snap_rate_sink, c.accrued_num, c.accrued_den, c.accrued_until,
                        c.settled)
             for k, c in self.channels.items()},
            self.cumulative_issuance,
            self.securities_outstanding,
            dict(self.rates),
            self.now,
            list(self.log),
            self.seq,
            dict(self.cursors),
            self.agent_order,
            self.channel_order,
            self.outgoing,
            self.incoming,
            self.adjustable_outgoing,
            self.pair_channels,
            self.central_bank,
            self.wake_times,
        )

    def total_stock(self) -> int:
        return sum(a.stock for a in self.agents.values())

    def append_event(self, time: float, kind: str, payload: dict) -> Event:
        ev = Event(time, self.seq, kind, payload)
        self.seq += 1
        self.log.append(ev)
        return ev


def build_network(spec: ScenarioSpec) -> NetworkState:
    """Construct a scenario's initial state at time 0.

    A `ScenarioSpec` checks every scenario rule when it is made, so this only
    builds. All settlement snapshots start equal to the true rates, accruals
    start empty, and cumulative issuance starts at zero.
    """
    agents = {
        a.id: Agent(a.id, a.stock, a.gain, a.continuity_exempt, a.mean_wait, event_key=rng.stream_key(
            spec.seed, rng.string_key("agent-events"), rng.string_key(a.id)))
        for a in spec.agents
    }
    channels = {
        c.id: Channel(c.id, c.source, c.sink, c.rate, c.multiplier.numerator, c.multiplier.denominator,
                      c.adjustable, snap_rate_sink=c.rate)
        for c in spec.channels
    }

    order = tuple(sorted(agents))
    outgoing = {aid: tuple(c.id for c in spec.channels if c.source == aid) for aid in order}
    incoming = {aid: tuple(c.id for c in spec.channels if c.sink == aid) for aid in order}
    adjustable_outgoing = {
        aid: tuple(cid for cid in outgoing[aid] if channels[cid].adjustable) for aid in order
    }
    pairs: dict[tuple[str, str], list[str]] = {}
    for c in spec.channels:
        key = (c.source, c.sink) if c.source < c.sink else (c.sink, c.source)
        pairs.setdefault(key, []).append(c.id)
    pair_channels = {k: tuple(sorted(v)) for k, v in pairs.items()}

    state = NetworkState(
        spec=spec,
        agents=agents,
        channels=channels,
        rates=dict(spec.rates),
        agent_order=order,
        channel_order=tuple(sorted(channels)),
        outgoing=outgoing,
        incoming=incoming,
        adjustable_outgoing=adjustable_outgoing,
        pair_channels=pair_channels,
        central_bank=next(a.id for a in spec.agents if a.continuity_exempt),
    )
    for agent in agents.values():
        agent.next_time = rng.exponential(agent.mean_wait, agent.event_key, 0)
    return state


def _elapsed(now_num: int, now_den: int, until: float) -> tuple[int, int]:
    """Time from `until` to ``now_num / now_den``, over the larger power of two (see `accrue`)."""
    n0, d0 = until.as_integer_ratio()
    if d0 <= now_den:
        return now_num - n0 * (now_den // d0), now_den
    return now_num * (d0 // now_den) - n0, d0


def _add_piece(channel: Channel, elapsed: int, elapsed_den: int) -> None:
    """Add ``rate * multiplier * elapsed`` to the channel's pot (see `accrue`).

    In place, over the larger denominator when one of the pot's and the
    piece's divides the other, as two float times' powers of two always do;
    an lcm is taken only otherwise (after a ``set_multiplier`` policy with a
    new denominator).
    """
    piece = channel.rate * channel.mult_num * elapsed
    piece_den = elapsed_den * channel.mult_den
    den = channel.accrued_den
    if den == piece_den:
        channel.accrued_num += piece
    elif den > piece_den and not den % piece_den:
        channel.accrued_num += piece * (den // piece_den)
    elif den < piece_den and not piece_den % den:
        channel.accrued_num = channel.accrued_num * (piece_den // den) + piece
        channel.accrued_den = piece_den
    else:
        common = lcm(den, piece_den)
        channel.accrued_num = channel.accrued_num * (common // den) + piece * (common // piece_den)
        channel.accrued_den = common


def accrue(channel: Channel, now: float) -> None:
    """Bring a channel's unsettled accrual up to `now` at the prevailing rate.

    Must be called before any rate or multiplier change so that past flow is
    integrated piecewise at the rates that were actually in force.

    Exact in integers: a float time is a dyadic rational, so
    ``as_integer_ratio()`` gives ``(n, 2**k)`` and the elapsed time is an
    integer over the larger of the two powers of two (`_elapsed`). The piece
    added is ``rate * mult_num * elapsed`` over ``mult_den`` times that
    power, read off the channel's multiplier pair with no ``Fraction`` in
    between, which is ``rate * multiplier * elapsed`` exactly
    (`_add_piece`). It is never
    negative: rates are >= 0 (checked by `ScenarioSpec`, clamped in
    `equilibrate`, checked in assignments), multipliers are >= 0 (checked by
    `ScenarioSpec`, for policies too) and ``now`` is past ``accrued_until``.
    """
    until = channel.accrued_until
    if now > until:
        if channel.rate:
            now_num, now_den = now.as_integer_ratio()
            elapsed, elapsed_den = _elapsed(now_num, now_den, until)
            _add_piece(channel, elapsed, elapsed_den)
        channel.accrued_until = now


def issue(state: NetworkState, amount: int, time: float) -> NetworkState:
    """Create (or retire, for negative amounts) central bank notes."""
    target = state.central_bank
    if state.cumulative_issuance + amount < 0:
        raise ScenarioError(
            f"retirement of {-amount} would drive notes outstanding below zero "
            f"(currently {state.cumulative_issuance})"
        )
    agent = state.agents[target]
    agent.stock += amount
    agent.received += max(amount, 0)
    agent.paid += max(-amount, 0)  # a retirement pays notes back
    state.cumulative_issuance += amount
    state.append_event(time, "Issue", {"agent": target, "amount": amount, "instrument": "notes",
                                       "outstanding": state.cumulative_issuance})
    return state


def conservation_holds(state: NetworkState) -> bool:
    return state.total_stock() - state.cumulative_issuance == sum(a.stock for a in state.spec.agents)
