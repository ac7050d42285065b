"""Scenario definitions: agents, channels, schedules, and named figures.

A scenario is the full, serializable description of a monetary network plus
the timed policy inputs (multiplier changes, rate settings, issuance and
shock schedules). Scenarios load from JSON; see docs/scenario-schema.md for
the wire format. A spec holds money as integers (minor currency units) and
rationals as `Fraction`s however it is made, reading a float rational through
its shortest decimal literal: 0.2 means exactly 1/5, not the nearest float.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from operator import itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import Any, Iterable, Mapping, NamedTuple

CENTRAL_BANK = "CentralBank"
DEFAULT_RATE_NAMES = ("discount_rate", "securities_interest_rate")
# Characters a CSV record cell cannot carry in an agent id, figure or rate name.
_UNRECORDABLE = re.compile(r"[\s,=]")
# A record's per-agent figures, each keyed "KIND:ID" beside the aggregate names.
AGENT_FIGURES = ("closing", "inflow", "outflow")
# Ceiling on the expected agent wakes per term, term_length x sum(1 / mean_wait).
# Every wake costs at least one draw, even a skipped one, so a scenario above
# it would not finish a term; the built-in scenarios expect at most 20.
_MAX_WAKES_PER_TERM = 1e6
# A rational's text may hold at most this many significant digits and an exponent of at most
# this (below 10**4: five exponent digits are read), as `Fraction`'s time grows with both. A text
# with an exponent, or over a third as long, is held to it in the form `rational_str` writes too.
_MAX_DIGITS = 1000


class ScenarioError(ValueError):
    """Raised for malformed or inconsistent scenario input."""


def as_fraction(value: Any, what: str = "value") -> Fraction:
    """Exact rational from an int, Fraction, string like '1/2' or '0.25', or float (module docstring)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ScenarioError(f"{what}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, (float, str)):
        text = repr(value) if isinstance(value, float) else value
        mantissa, e, exponent = text.lower().partition("e")
        too_big = (len(text) > _MAX_DIGITS and _significant(mantissa) > _MAX_DIGITS or e and
                   int("".join(filter(str.isdecimal, exponent)).lstrip("0")[:5] or 0) > _MAX_DIGITS)
        try:
            exact = None if too_big else Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ScenarioError(f"{what}: cannot parse rational {value!r}") from exc
        if too_big or (e or len(text) > _MAX_DIGITS // 3) and _significant(rational_str(exact)) > _MAX_DIGITS:
            raise ScenarioError(f"{what}: {value!r} has more than {_MAX_DIGITS} significant digits "
                                f"or an exponent past {_MAX_DIGITS}")
        return exact
    raise ScenarioError(f"{what}: cannot parse rational from {type(value).__name__}")


def _significant(text: str) -> int:
    """The number of digits in `text` but leading and trailing zeros."""
    return len("".join(filter(str.isdecimal, text)).strip("0"))


def as_money(value: Any, what: str = "amount") -> int:
    """Exact integer minor-unit amount; rejects anything fractional."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{what}: money must be an integer count of minor units, got {value!r}")
    return value


def _as_float(value: Any, what: str = "value") -> float:
    """Finite float from a JSON number or a numeric string."""
    try:
        result = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        result = math.nan
    if math.isfinite(result):
        return result
    raise ScenarioError(f"{what}: expected a finite number, got {value!r}")


def rational_str(value: Fraction) -> str:
    """Exact string form: decimal when the denominator is 2^a*5^b, else 'n/d'."""
    num, den = value.numerator, value.denominator
    twos = (den & -den).bit_length() - 1
    rest, fives = den >> twos, 0
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return f"{num}/{den}"
    # num/den times 10**digits is a whole number of units, exactly.
    digits = max(twos, fives)
    if digits == 0:
        return str(num)
    units = num * 10 ** digits // den
    sign = "-" if units < 0 else ""
    text = str(abs(units)).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def _read_utf8(path: str | Path, error: type[ValueError]) -> str:
    """The text of a UTF-8 file; `error` naming the file when it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 (codec can't decode byte 0x{exc.object[exc.start]:02x}: "
                    f"{exc.reason} at byte {exc.start})") from exc


@dataclass(frozen=True)
class AgentSpec:
    """One agent of a scenario; a dataclass so that `dataclasses.replace` can vary it."""

    id: str
    role: str
    stock: int = 0
    gain: Fraction = Fraction(0)
    mean_wait: float = 0.25

    @property
    def continuity_exempt(self) -> bool:
        return self.role == CENTRAL_BANK


class ChannelSpec(NamedTuple):
    id: str
    source: str
    sink: str
    rate: int
    multiplier: Fraction = Fraction(1)
    adjustable: bool = False


class FigureSpec(NamedTuple):
    """A named per-term aggregate: settled flow on a channel, or an agent's stock."""

    name: str
    channel: str | None = None
    stock: str | None = None


class ScheduledAmount(NamedTuple):
    time: float
    amount: int


class PolicyAction(NamedTuple):
    """Timed instrument setting: a channel multiplier or a named policy rate."""

    time: float
    kind: str  # "set_multiplier" | "set_rate"
    target: str
    value: Fraction


class ShockSpec(NamedTuple):
    """One-off redistribution riding a channel; positive amounts flow source->sink."""

    time: float
    channel: str
    amount: int


@dataclass(frozen=True)
class ScenarioSpec:
    """A whole scenario; a dataclass as `__post_init__` checks and converts it and `replace` varies it."""

    name: str
    agents: tuple[AgentSpec, ...]
    channels: tuple[ChannelSpec, ...]
    seed: int = 0
    term_length: float = 1.0
    issuance: tuple[ScheduledAmount, ...] = ()
    securities: tuple[ScheduledAmount, ...] = ()
    policy: tuple[PolicyAction, ...] = ()
    shocks: tuple[ShockSpec, ...] = ()
    figures: tuple[FigureSpec, ...] = ()
    rates: Mapping[str, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2 ** 64:
            raise ScenarioError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
        # Each schedule runs in time order, ties in the order given. A time, like term_length
        # and mean_wait, is kept as the finite float a scenario file gives; the last field,
        # an amount or a policy value, as money or a rational.
        for attr, what in (("issuance", "issuance_schedule"), ("securities", "securities_schedule"),
                           ("policy", "policy"), ("shocks", "shock")):
            if entries := getattr(self, attr):
                exact, kind = (as_fraction, Fraction) if attr == "policy" else (as_money, int)
                entries = sorted((e if type(e.time) is float and math.isfinite(e.time) and type(e[-1]) is kind
                                  else type(e)(_as_float(e.time, f"{what} time"), *e[1:-1],
                                               exact(e[-1], f"{what} {e._fields[-1]}")) for e in entries),
                                 key=itemgetter(0))
                if entries[0].time < 0 and attr in ("issuance", "securities"):
                    raise ScenarioError(f"{attr} schedule: negative time {entries[0].time}")
                object.__setattr__(self, attr, tuple(entries))
        if not isinstance(self.name, str):
            raise ScenarioError(f"scenario: name must be a string, got {self.name!r}")
        if "".join(self.name.splitlines()) != self.name:  # the CLI prints it in a one-line header
            raise ScenarioError(f"scenario: name must not contain a line break, got {self.name!r}")
        term_length = _as_float(self.term_length, "term_length")
        if not term_length > 0:
            raise ScenarioError(f"term_length must be positive, got {term_length}")
        object.__setattr__(self, "term_length", term_length)

        def recordable(what: str, name: str) -> None:
            if not isinstance(name, str):
                raise ScenarioError(f"{what} must be a string, got {name!r}")
            if not name or _UNRECORDABLE.search(name):
                raise ScenarioError(f"{what} {name!r}: a record cannot hold an empty name "
                                    "or one with a comma, whitespace or '='")
        agents, agent_ids, cbs, waking = self.agents, set(), [], 0.0
        for i, a in enumerate(self.agents):
            recordable("agent id", a.id)
            if a.id in agent_ids:
                raise ScenarioError(f"duplicate agent id {a.id!r}")
            agent_ids.add(a.id)
            if (type(a.stock) is not int or type(a.gain) is not Fraction
                    or type(a.mean_wait) is not float or not 0 < a.mean_wait < math.inf):
                where = f"agent {a.id!r}"
                a = AgentSpec(a.id, a.role, as_money(a.stock, f"{where} stock"),
                              as_fraction(a.gain, f"{where} gain"), _as_float(a.mean_wait, f"{where} mean_wait"))
                if not a.mean_wait > 0:
                    raise ScenarioError(f"{where}: mean_wait must be positive, got {a.mean_wait}")
                agents = (*agents[:i], a, *agents[i + 1:])
            if a.gain.numerator < 0:  # a Fraction by now; comparing it with 0 costs six times more
                raise ScenarioError(f"agent {a.id!r}: gain must be non-negative")
            waking += 1 / a.mean_wait
            if a.continuity_exempt:
                cbs.append(a.id)
        object.__setattr__(self, "agents", agents)
        if (wakes := term_length * waking) > _MAX_WAKES_PER_TERM:
            raise ScenarioError(f"agents would wake about {wakes:.3g} times per term (term_length x sum of "
                                f"1/mean_wait), above the limit of {_MAX_WAKES_PER_TERM:.0e}; "
                                "raise mean_wait")
        if len(cbs) != 1:
            raise ScenarioError(f"network must contain exactly one {CENTRAL_BANK} agent, "
                                f"found {len(cbs)}: {cbs!r}")
        channels, channel_ids = self.channels, set()
        for i, c in enumerate(self.channels):
            if c.id in channel_ids:
                raise ScenarioError(f"duplicate channel id {c.id!r}")
            channel_ids.add(c.id)
            if c.source == c.sink:
                raise ScenarioError(f"channel {c.id!r}: self-loop on agent {c.source!r}")
            for endpoint in (c.source, c.sink):
                if endpoint not in agent_ids:
                    raise ScenarioError(f"channel {c.id!r}: unknown agent {endpoint!r}")
            if type(c.adjustable) is not bool:
                raise ScenarioError(f"channel {c.id!r}: adjustable must be a JSON boolean, got {c.adjustable!r}")
            if type(c.rate) is not int or type(c.multiplier) is not Fraction:
                c = ChannelSpec(c.id, c.source, c.sink, as_money(c.rate, f"channel {c.id!r} rate"),
                                as_fraction(c.multiplier, f"channel {c.id!r} multiplier"), c.adjustable)
                channels = (*channels[:i], c, *channels[i + 1:])
            if c.rate < 0:
                raise ScenarioError(f"channel {c.id!r}: negative rate {c.rate}")
            if c.multiplier.numerator < 0:
                raise ScenarioError(f"channel {c.id!r}: negative multiplier {c.multiplier}")
        object.__setattr__(self, "channels", channels)
        rates = {**dict.fromkeys(DEFAULT_RATE_NAMES, Fraction(0)), **self.rates}
        for name, value in rates.items():
            if type(value) is not Fraction:
                rates[name] = as_fraction(value, f"rate {name!r}")
        object.__setattr__(self, "rates", MappingProxyType(rates))
        rate_names = [*rates]
        for p in self.policy:
            if p.kind == "set_rate":
                rate_names.append(p.target)
            elif p.kind != "set_multiplier":
                raise ScenarioError(f"policy entry: unknown action {p.kind!r}")
            elif p.target not in channel_ids:
                raise ScenarioError(f"policy entry: unknown channel {p.target!r}")
            if p.value.numerator < 0:
                raise ScenarioError(f"policy entry for {p.target!r}: negative value")
        # A record keeps rates and figures in one namespace with the totals
        # and each agent's "closing:ID", "inflow:ID" and "outflow:ID".
        reserved = {"notes_outstanding", "government_securities_outstanding",
                    *(f"{kind}:{aid}" for aid in agent_ids for kind in AGENT_FIGURES)}
        for name in rate_names:
            recordable("rate name", name)
            if name in reserved:
                raise ScenarioError(f"rate name {name!r} is the name of another record figure "
                                    "(notes or securities outstanding, or an agent's closing, "
                                    "inflow or outflow)")
        reserved.update(rate_names)
        for s in self.shocks:
            if s.channel not in channel_ids:
                raise ScenarioError(f"shock entry: unknown channel {s.channel!r}")
        figure_names: set[str] = set()
        for f in self.figures:
            recordable("figure name", f.name)
            if f.name in figure_names:
                raise ScenarioError(f"figure name {f.name!r} is used more than once")
            if f.name in reserved:
                raise ScenarioError(f"figure name {f.name!r} is the name of another record figure "
                                    "(notes or securities outstanding, a rate, or an agent's "
                                    "closing, inflow or outflow)")
            figure_names.add(f.name)
            if (f.channel is None) == (f.stock is None):
                raise ScenarioError(f"figure {f.name!r}: exactly one of channel/stock required")
            if f.channel is not None and f.channel not in channel_ids:
                raise ScenarioError(f"figure {f.name!r}: unknown channel {f.channel!r}")
            if f.stock is not None and f.stock not in agent_ids:
                raise ScenarioError(f"figure {f.name!r}: unknown agent {f.stock!r}")

    def with_seed(self, seed: int) -> "ScenarioSpec":
        return replace(self, seed=seed)

    def with_extra_policy(self, actions: Iterable[PolicyAction]) -> "ScenarioSpec":
        return replace(self, policy=(*self.policy, *actions))

    def with_extra_shocks(self, shocks: Iterable[ShockSpec]) -> "ScenarioSpec":
        return replace(self, shocks=(*self.shocks, *shocks))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "term_length": self.term_length,
            "agents": [{"id": a.id, "role": a.role, "stock": a.stock, "gain": rational_str(a.gain),
                        "mean_wait": a.mean_wait} for a in self.agents],
            "channels": [{"id": c.id, "source": c.source, "sink": c.sink, "rate": c.rate,
                          "multiplier": rational_str(c.multiplier), "adjustable": c.adjustable}
                         for c in self.channels],
            "issuance_schedule": [[s.time, s.amount] for s in self.issuance],
            "securities_schedule": [[s.time, s.amount] for s in self.securities],
            "policy_schedule": [
                {"time": p.time, "action": p.kind, "target": p.target, "value": rational_str(p.value)}
                for p in self.policy
            ],
            "shock_schedule": [
                {"time": s.time, "channel": s.channel, "amount": s.amount} for s in self.shocks
            ],
            "figures": [
                {"name": f.name, **({"channel": f.channel} if f.channel else {"stock": f.stock})}
                for f in self.figures
            ],
            "rates": {k: rational_str(v) for k, v in self.rates.items()},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n"

    def fingerprint(self) -> str:
        """The canonical JSON's SHA-256, shortened; worked out once per spec, as specs are frozen."""
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
            cached = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
            object.__setattr__(self, "_fingerprint", cached)
        return cached


def _require(mapping: Mapping, key: str, where: str) -> Any:
    if key not in mapping:
        raise ScenarioError(f"{where}: missing required field {key!r}")
    return mapping[key]


def _text(mapping: Mapping, key: str, where: str, required: bool = True) -> Any:
    """The JSON string under `key`, an id or a reference; None if optional and absent."""
    value = _require(mapping, key, where) if required else mapping.get(key)
    if not isinstance(value, str) and (required or value is not None):
        raise ScenarioError(f"{where}: {key} must be a JSON string, got {value!r}")
    return value


def _entries(data: Mapping, key: str, kind: type | tuple = Mapping, required: bool = False) -> list:
    """The list under `key`, each of whose entries must be a `kind`."""
    value = _require(data, key, "scenario") if required else data.get(key, [])
    if not isinstance(value, (list, tuple)) or not all(isinstance(e, kind) for e in value):
        raise ScenarioError(f"{key} must be a list of {'objects' if kind is Mapping else 'pairs'}")
    return value


def scenario_from_dict(data: Mapping[str, Any]) -> ScenarioSpec:
    """The spec of a JSON document, whose numbers `ScenarioSpec` converts; absent fields take its defaults."""
    if not isinstance(data, Mapping):
        raise ScenarioError("scenario document must be a JSON object")
    name = _text(data, "name", "scenario") if "name" in data else "unnamed"
    if not isinstance(data.get("rates", {}), Mapping):
        raise ScenarioError("rates must be an object")

    agents = []
    for raw in _entries(data, "agents", required=True):
        where = f"agent {raw.get('id', '?')!r}"
        agents.append(
            AgentSpec(
                id=_text(raw, "id", "agent"),
                role=_text(raw, "role", where),
                **{key: raw[key] for key in ("stock", "gain", "mean_wait") if key in raw},
            )
        )

    channels = []
    for raw in _entries(data, "channels"):
        where = f"channel {raw.get('id', '?')!r}"
        channels.append(
            ChannelSpec(
                id=_text(raw, "id", "channel"),
                source=_text(raw, "source", where),
                sink=_text(raw, "sink", where),
                rate=_require(raw, "rate", where),
                **{key: raw[key] for key in ("multiplier", "adjustable") if key in raw},
            )
        )

    def amounts(key: str) -> tuple[ScheduledAmount, ...]:
        for entry in (pairs := _entries(data, key, (list, tuple))):
            if len(entry) != 2:
                raise ScenarioError(f"{key}: expected a [time, amount] pair, got {entry!r}")
        return tuple(ScheduledAmount(*entry) for entry in pairs)

    policy = [
        PolicyAction(
            time=_require(raw, "time", "policy entry"),
            kind=str(_require(raw, "action", "policy entry")),
            target=_text(raw, "target", "policy entry"),
            value=_require(raw, "value", "policy entry"),
        )
        for raw in _entries(data, "policy_schedule")
    ]

    shocks = [
        ShockSpec(
            time=_require(raw, "time", "shock entry"),
            channel=_text(raw, "channel", "shock entry"),
            amount=_require(raw, "amount", "shock entry"),
        )
        for raw in _entries(data, "shock_schedule")
    ]

    figures = [
        FigureSpec(
            name=_text(raw, "name", "figure entry"),
            channel=_text(raw, "channel", "figure entry", False),
            stock=_text(raw, "stock", "figure entry", False),
        )
        for raw in _entries(data, "figures")
    ]

    return ScenarioSpec(
        name=name,
        agents=tuple(agents),
        channels=tuple(channels),
        issuance=amounts("issuance_schedule"),
        securities=amounts("securities_schedule"),
        policy=tuple(policy),
        shocks=tuple(shocks),
        figures=tuple(figures),
        **{key: data[key] for key in ("seed", "term_length", "rates") if key in data},
    )


def load_scenario(path: str | Path) -> ScenarioSpec:
    text = _read_utf8(path, ScenarioError)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise ScenarioError(f"{path}: JSON nested too deeply to read") from None
    return scenario_from_dict(data)


# ---------------------------------------------------------------------------
# Built-in reference scenarios
# ---------------------------------------------------------------------------


def national_5() -> ScenarioSpec:
    """Five-sector closed economy in flow balance, used as the reference network.

    Effective per-term flows are balanced at every agent, so the network starts
    at a fixed point of the adjustment dynamics; schedule entries and policy
    changes provide the only excitation.
    """
    q = Fraction(1, 4)
    return ScenarioSpec(
        name="national-5",
        seed=42,
        term_length=1.0,
        agents=(
            AgentSpec("CB", CENTRAL_BANK, gain=Fraction(0)),
            AgentSpec("GOV", "Government", gain=Fraction(1, 2)),
            AgentSpec("BANK", "BankSector", gain=Fraction(1, 2)),
            AgentSpec("HH", "HouseholdSector", gain=Fraction(1, 2)),
            AgentSpec("CORP", "CorporateSector", gain=Fraction(1, 2)),
        ),
        channels=(
            ChannelSpec("wages", "CORP", "HH", 840, adjustable=True),
            ChannelSpec("transfers", "GOV", "HH", 400, adjustable=True),
            ChannelSpec("consumption", "HH", "CORP", 1000, adjustable=True),
            ChannelSpec("savings", "HH", "BANK", 40, adjustable=True),
            ChannelSpec("tax_hh", "HH", "GOV", 800, multiplier=q),
            ChannelSpec("procurement", "GOV", "CORP", 100, adjustable=True),
            ChannelSpec("debt_service", "GOV", "BANK", 300, adjustable=True),
            ChannelSpec("tax_corp", "CORP", "GOV", 400, multiplier=q),
            ChannelSpec("investment", "CORP", "BANK", 200, adjustable=True),
            ChannelSpec("lending", "BANK", "CORP", 40, adjustable=True),
            ChannelSpec("bond", "BANK", "GOV", 500, adjustable=True),
            ChannelSpec("note_circulation", "CB", "BANK", 20),
            ChannelSpec("reserve_deposit", "BANK", "CB", 20),
        ),
        issuance=(ScheduledAmount(0.0, 2000),),
        securities=(ScheduledAmount(0.0, 3000),),
        figures=(
            FigureSpec("consumption_flow", channel="consumption"),
            FigureSpec("investment_flow", channel="investment"),
            FigureSpec("bond_flow", channel="bond"),
            FigureSpec("wages_flow", channel="wages"),
        ),
        rates={"discount_rate": Fraction(1, 40), "securities_interest_rate": Fraction(3, 100)},
    )


def two_agent_kernel(rate_ab: int = 10, rate_ba: int = 10, gain: Fraction = Fraction(1)) -> ScenarioSpec:
    """Minimal interacting pair (plus the required central bank, unconnected)."""
    return ScenarioSpec(
        name="two-agent-kernel",
        seed=3,
        term_length=1.0,
        agents=(
            AgentSpec("CB", CENTRAL_BANK),
            AgentSpec("A", "Custom:pair", gain=gain, mean_wait=0.5),
            AgentSpec("B", "Custom:pair", gain=gain, mean_wait=0.5),
        ),
        channels=(
            ChannelSpec("ab", "A", "B", rate_ab, adjustable=True),
            ChannelSpec("ba", "B", "A", rate_ba, adjustable=True),
        ),
        figures=(
            FigureSpec("ab_flow", channel="ab"),
            FigureSpec("ba_flow", channel="ba"),
        ),
    )


def three_agent_cycle(
    rates: tuple[int, int, int] = (300, 300, 300),
    gain: Fraction = Fraction(1, 2),
    name: str = "three-agent-cycle",
    seed: int = 7,
) -> ScenarioSpec:
    """Three non-exempt agents on a directed cycle; staleness arises organically."""
    r_ab, r_bc, r_ca = rates
    return ScenarioSpec(
        name=name,
        seed=seed,
        term_length=1.0,
        agents=(
            AgentSpec("CB", CENTRAL_BANK),
            AgentSpec("A", "Custom:cycle", gain=gain, mean_wait=0.5),
            AgentSpec("B", "Custom:cycle", gain=gain, mean_wait=0.5),
            AgentSpec("C", "Custom:cycle", gain=gain, mean_wait=0.5),
        ),
        channels=(
            ChannelSpec("ab", "A", "B", r_ab, adjustable=True),
            ChannelSpec("bc", "B", "C", r_bc, adjustable=True),
            ChannelSpec("ca", "C", "A", r_ca, adjustable=True),
        ),
        figures=(
            FigureSpec("ab_flow", channel="ab"),
            FigureSpec("bc_flow", channel="bc"),
            FigureSpec("ca_flow", channel="ca"),
        ),
    )


def three_agent_skew() -> ScenarioSpec:
    """Unbalanced cycle variant: a transient that adjustment has to work off."""
    return three_agent_cycle(rates=(330, 300, 285), name="three-agent-skew", seed=11)


BUILTIN_SCENARIOS = {
    "national-5": national_5,
    "two-agent-kernel": two_agent_kernel,
    "three-agent-cycle": three_agent_cycle,
    "three-agent-skew": three_agent_skew,
}
