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
from typing import Mapping

from . import rng
from .scenario import CENTRAL_BANK, ScenarioError, ScenarioSpec

# Ceiling on the expected agent wakes per term, term_length * sum(1 / mean_wait).
# Every wake costs at least one draw, even a skipped one, so a scenario above
# it would not finish a term; the built-in scenarios expect at most 20.
_MAX_WAKES_PER_TERM = 1e6


@dataclass(slots=True)
class Agent:
    id: str
    stock: int
    gain: Fraction
    continuity_exempt: bool
    mean_wait: float
    pending_correction: Fraction = Fraction(0)
    event_count: int = 0
    next_time: float = 0.0
    event_key: int = 0  # pre-mixed rng stream key


@dataclass(slots=True)
class Channel:
    """Directed flow with the sink's stale snapshot of its true rate.

    ``rate`` is the current true flow intention in minor units per term; the
    effective flow is rate * multiplier. ``snap_rate_sink`` holds the rate as
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
    multiplier: Fraction
    adjustable: bool
    snap_rate_sink: int = 0
    accrued_num: int = 0
    accrued_den: int = 1
    accrued_until: float = 0.0


@dataclass
class Event:
    time: float
    seq: int
    kind: str  # AgentUpdate | Settlement | Shock | Issue | Policy
    payload: dict


@dataclass
class NetworkState:
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
    # Immutable after build; shared across clones.
    initial_stocks: Mapping[str, int] = field(default_factory=dict)
    initial_rates: Mapping[str, Fraction] = field(default_factory=dict)
    agent_order: tuple[str, ...] = ()
    outgoing: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    incoming: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    adjustable_outgoing: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    pair_channels: Mapping[tuple[str, str], tuple[str, ...]] = field(default_factory=dict)
    central_bank: str = ""

    def clone(self) -> "NetworkState":
        """Independent copy sharing only the immutable index structures.

        Every field is passed explicitly: building the slotted records
        directly is several times cheaper than `copy.copy`, which goes
        through `__reduce_ex__`.
        """
        return NetworkState(
            self.spec,
            {k: Agent(a.id, a.stock, a.gain, a.continuity_exempt, a.mean_wait,
                      a.pending_correction, a.event_count, a.next_time, a.event_key)
             for k, a in self.agents.items()},
            {k: Channel(c.id, c.source, c.sink, c.rate, c.multiplier, c.adjustable,
                        c.snap_rate_sink, c.accrued_num, c.accrued_den, c.accrued_until)
             for k, c in self.channels.items()},
            self.cumulative_issuance,
            self.securities_outstanding,
            dict(self.rates),
            self.now,
            list(self.log),
            self.seq,
            dict(self.cursors),
            self.initial_stocks,
            self.initial_rates,
            self.agent_order,
            self.outgoing,
            self.incoming,
            self.adjustable_outgoing,
            self.pair_channels,
            self.central_bank,
        )

    def total_stock(self) -> int:
        return sum(a.stock for a in self.agents.values())

    def append_event(self, time: float, kind: str, payload: dict) -> Event:
        ev = Event(time, self.seq, kind, payload)
        self.seq += 1
        self.log.append(ev)
        return ev


def build_network(spec: ScenarioSpec) -> NetworkState:
    """Validate a scenario and construct its initial state at time 0.

    All settlement snapshots start equal to the true rates, accruals start
    empty, and cumulative issuance starts at zero.
    """
    agents: dict[str, Agent] = {}
    for a in spec.agents:
        if a.id in agents:
            raise ScenarioError(f"duplicate agent id {a.id!r}")
        if not a.mean_wait > 0:
            raise ScenarioError(f"agent {a.id!r}: mean_wait must be positive, got {a.mean_wait}")
        agents[a.id] = Agent(
            id=a.id,
            stock=a.stock,
            gain=a.gain,
            continuity_exempt=a.continuity_exempt,
            mean_wait=a.mean_wait,
            event_key=rng.stream_key(spec.seed, rng.string_key("agent-events"), rng.string_key(a.id)),
        )

    wakes = spec.term_length * sum(1 / a.mean_wait for a in spec.agents)
    if wakes > _MAX_WAKES_PER_TERM:
        raise ScenarioError(
            f"agents would wake about {wakes:.3g} times per term (term_length x sum of "
            f"1/mean_wait), above the limit of {_MAX_WAKES_PER_TERM:.0e}; raise mean_wait"
        )

    cbs = [a.id for a in spec.agents if a.continuity_exempt]
    if len(cbs) != 1:
        raise ScenarioError(
            f"network must contain exactly one {CENTRAL_BANK} agent, found {len(cbs)}: {cbs!r}"
        )

    channels: dict[str, Channel] = {}
    for c in spec.channels:
        if c.id in channels:
            raise ScenarioError(f"duplicate channel id {c.id!r}")
        if c.source == c.sink:
            raise ScenarioError(f"channel {c.id!r}: self-loop on agent {c.source!r}")
        for endpoint in (c.source, c.sink):
            if endpoint not in agents:
                raise ScenarioError(f"channel {c.id!r}: unknown agent {endpoint!r}")
        if c.rate < 0:
            raise ScenarioError(f"channel {c.id!r}: negative rate {c.rate}")
        if c.multiplier < 0:
            raise ScenarioError(f"channel {c.id!r}: negative multiplier {c.multiplier}")
        channels[c.id] = Channel(
            id=c.id,
            source=c.source,
            sink=c.sink,
            rate=c.rate,
            multiplier=c.multiplier,
            adjustable=c.adjustable,
            snap_rate_sink=c.rate,
        )

    for sched_name, sched in (("issuance", spec.issuance), ("securities", spec.securities)):
        for entry in sched:
            if entry.time < 0:
                raise ScenarioError(f"{sched_name} schedule: negative time {entry.time}")
    for action in spec.policy:
        if action.kind == "set_multiplier" and action.target not in channels:
            raise ScenarioError(f"policy entry: unknown channel {action.target!r}")
        if action.value < 0:
            raise ScenarioError(f"policy entry for {action.target!r}: negative value")
    for shock in spec.shocks:
        if shock.channel not in channels:
            raise ScenarioError(f"shock entry: unknown channel {shock.channel!r}")
    for fig in spec.figures:
        if fig.channel is not None and fig.channel not in channels:
            raise ScenarioError(f"figure {fig.name!r}: unknown channel {fig.channel!r}")
        if fig.stock is not None and fig.stock not in agents:
            raise ScenarioError(f"figure {fig.name!r}: unknown agent {fig.stock!r}")

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
        initial_stocks={aid: agents[aid].stock for aid in order},
        initial_rates=dict(spec.rates),
        agent_order=order,
        outgoing=outgoing,
        incoming=incoming,
        adjustable_outgoing=adjustable_outgoing,
        pair_channels=pair_channels,
        central_bank=cbs[0],
    )
    for agent in agents.values():
        agent.next_time = rng.exponential(agent.mean_wait, agent.event_key, 0)
    return state


def _add_ratios(n0: int, d0: int, n1: int, d1: int) -> tuple[int, int]:
    """n0/d0 + n1/d1 as an unreduced integer ratio over positive denominators.

    When one denominator divides the other, as the power-of-two denominators
    of two float times always do, the sum is taken over the larger one by
    multiplying through by their quotient; an lcm is needed only otherwise
    (after a ``set_multiplier`` policy with a new denominator).
    """
    if d0 == d1:
        return n0 + n1, d0
    if d0 > d1:
        if not d0 % d1:
            return n0 + n1 * (d0 // d1), d0
    elif not d1 % d0:
        return n0 * (d1 // d0) + n1, d1
    den = lcm(d0, d1)
    return n0 * (den // d0) + n1 * (den // d1), den


def accrue(channel: Channel, now: float) -> None:
    """Bring a channel's unsettled accrual up to `now` at the prevailing rate.

    Must be called before any rate or multiplier change so that past flow is
    integrated piecewise at the rates that were actually in force.

    Exact in integers: a float time is a dyadic rational, so
    ``as_integer_ratio()`` gives ``(n, 2**k)`` and the elapsed time is an
    integer over the larger of the two powers of two. The piece added is
    ``rate * multiplier.numerator * elapsed`` over ``multiplier.denominator``
    times that power, which is ``rate * multiplier * elapsed`` exactly. It is
    never negative, because rates and multipliers are non-negative and
    ``now`` is past ``accrued_until``.
    """
    if now > channel.accrued_until:
        if channel.rate:
            n1, d1 = now.as_integer_ratio()
            n0, d0 = channel.accrued_until.as_integer_ratio()
            elapsed, den = _add_ratios(n1, d1, -n0, d0)
            m = channel.multiplier
            channel.accrued_num, channel.accrued_den = _add_ratios(
                channel.accrued_num, channel.accrued_den,
                channel.rate * m.numerator * elapsed, den * m.denominator)
        channel.accrued_until = now


def issue(state: NetworkState, amount: int, time: float) -> NetworkState:
    """Create (or retire, for negative amounts) central bank notes."""
    target = state.central_bank
    if state.cumulative_issuance + amount < 0:
        raise ValueError(
            f"retirement of {-amount} would drive notes outstanding below zero "
            f"(currently {state.cumulative_issuance})"
        )
    state.agents[target].stock += amount
    state.cumulative_issuance += amount
    state.append_event(time, "Issue", {"agent": target, "amount": amount, "instrument": "notes",
                                       "outstanding": state.cumulative_issuance})
    return state


def notes_outstanding(state: NetworkState) -> int:
    return state.cumulative_issuance


def conservation_holds(state: NetworkState) -> bool:
    initial = sum(state.initial_stocks.values())
    return state.total_stock() - state.cumulative_issuance == initial
