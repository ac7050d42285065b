"""Scenario definitions: agents, channels, schedules, and named figures.

A scenario is the full, serializable description of a monetary network plus
the timed policy inputs (multiplier changes, rate settings, issuance and
shock schedules). Scenarios load from JSON; see docs/scenario-schema.md for
the wire format. Exact quantities are integers (minor currency units) and
exact rationals; floats are accepted in JSON but converted through their
decimal literal so "0.2" means exactly 1/5.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterable, Mapping, NamedTuple

CENTRAL_BANK = "CentralBank"
DEFAULT_RATE_NAMES = ("discount_rate", "securities_interest_rate")
# Characters a CSV record cell cannot carry in an agent id, figure or rate name.
_UNRECORDABLE = re.compile(r"[\s,=]")


class ScenarioError(ValueError):
    """Raised for malformed or inconsistent scenario input."""


def as_fraction(value: Any, what: str = "value") -> Fraction:
    """Exact rational from an int, Fraction, or string like '1/2' or '0.25'.

    Floats are converted via their shortest decimal repr, so a JSON 0.2
    becomes exactly 1/5 rather than the binary float it parsed to.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ScenarioError(f"{what}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, (float, str)):
        try:
            return Fraction(repr(value) if isinstance(value, float) else value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ScenarioError(f"{what}: cannot parse rational {value!r}") from exc
    raise ScenarioError(f"{what}: cannot parse rational from {type(value).__name__}")


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
    """A whole scenario; a dataclass as `__post_init__` validates it and `replace` varies it."""

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
        merged = {name: Fraction(0) for name in DEFAULT_RATE_NAMES}
        merged.update(self.rates)
        object.__setattr__(self, "rates", merged)
        for what, names in (("agent id", [a.id for a in self.agents]),
                            ("figure name", [f.name for f in self.figures]),
                            ("rate name", merged)):
            for name in names:
                if not name or _UNRECORDABLE.search(name):
                    raise ScenarioError(f"{what} {name!r}: a record cannot hold an empty name "
                                        f"or one with a comma, whitespace or '='")
        # A record keeps rates and figures in one namespace with the totals
        # and each agent's "closing:ID", "inflow:ID" and "outflow:ID".
        reserved = {"notes_outstanding", "government_securities_outstanding",
                    *(f"{kind}:{a.id}" for a in self.agents
                      for kind in ("closing", "inflow", "outflow"))}
        rate_names = [*merged, *(p.target for p in self.policy if p.kind == "set_rate")]
        for name in rate_names:
            if name in reserved:
                raise ScenarioError(f"rate name {name!r} is the name of another record figure "
                                    "(notes or securities outstanding, or an agent's closing, "
                                    "inflow or outflow)")
        reserved.update(rate_names)
        names = [f.name for f in self.figures]
        for name in names:
            if names.count(name) > 1:
                raise ScenarioError(f"figure name {name!r} is used more than once")
            if name in reserved:
                raise ScenarioError(f"figure name {name!r} is the name of another record figure "
                                    "(notes or securities outstanding, a rate, or an agent's "
                                    "closing, inflow or outflow)")

    @property
    def wakes_per_term(self) -> float:
        """Expected agent wakes per term: term_length * sum(1 / mean_wait)."""
        return self.term_length * sum(1 / a.mean_wait for a in self.agents)

    def with_seed(self, seed: int) -> "ScenarioSpec":
        return replace(self, seed=seed)

    def with_extra_policy(self, actions: Iterable[PolicyAction]) -> "ScenarioSpec":
        merged = tuple(sorted((*self.policy, *actions), key=lambda p: p.time))
        return replace(self, policy=merged)

    def with_extra_shocks(self, shocks: Iterable[ShockSpec]) -> "ScenarioSpec":
        merged = tuple(sorted((*self.shocks, *shocks), key=lambda s: s.time))
        return replace(self, shocks=merged)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "term_length": self.term_length,
            "agents": [
                {
                    "id": a.id,
                    "role": a.role,
                    "stock": a.stock,
                    "gain": rational_str(a.gain),
                    "mean_wait": a.mean_wait,
                }
                for a in self.agents
            ],
            "channels": [
                {
                    "id": c.id,
                    "source": c.source,
                    "sink": c.sink,
                    "rate": c.rate,
                    "multiplier": rational_str(c.multiplier),
                    "adjustable": c.adjustable,
                }
                for c in self.channels
            ],
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
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


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
    if not isinstance(data, Mapping):
        raise ScenarioError("scenario document must be a JSON object")
    name = _text(data, "name", "scenario") if "name" in data else "unnamed"
    if "".join(name.splitlines()) != name:  # the CLI prints it in a one-line header
        raise ScenarioError(f"scenario: name must not contain a line break, got {name!r}")
    seed = data.get("seed", 0)
    term_length = _as_float(data.get("term_length", 1.0), "term_length")
    if not term_length > 0:
        raise ScenarioError(f"term_length must be positive, got {term_length}")

    agents = []
    for raw in _entries(data, "agents", required=True):
        where = f"agent {raw.get('id', '?')!r}"
        agents.append(
            AgentSpec(
                id=_text(raw, "id", "agent"),
                role=_text(raw, "role", where),
                stock=as_money(raw.get("stock", 0), f"{where} stock"),
                gain=as_fraction(raw.get("gain", 0), f"{where} gain"),
                mean_wait=_as_float(raw.get("mean_wait", 0.25), f"{where} mean_wait"),
            )
        )
        if agents[-1].gain < 0:
            raise ScenarioError(f"{where}: gain must be non-negative")

    channels = []
    for raw in _entries(data, "channels"):
        where = f"channel {raw.get('id', '?')!r}"
        adjustable = raw.get("adjustable", False)
        if not isinstance(adjustable, bool):
            raise ScenarioError(f"{where}: adjustable must be a JSON boolean, got {adjustable!r}")
        channels.append(
            ChannelSpec(
                id=_text(raw, "id", "channel"),
                source=_text(raw, "source", where),
                sink=_text(raw, "sink", where),
                rate=as_money(_require(raw, "rate", where), f"{where} rate"),
                multiplier=as_fraction(raw.get("multiplier", 1), f"{where} multiplier"),
                adjustable=adjustable,
            )
        )

    def amounts(key: str) -> tuple[ScheduledAmount, ...]:
        out = []
        for entry in _entries(data, key, (list, tuple)):
            if len(entry) != 2:
                raise ScenarioError(f"{key}: expected a [time, amount] pair, got {entry!r}")
            out.append(ScheduledAmount(_as_float(entry[0], f"{key} time"),
                                       as_money(entry[1], f"{key} amount")))
        return tuple(sorted(out, key=lambda s: s.time))

    policy = []
    for raw in _entries(data, "policy_schedule"):
        kind = str(_require(raw, "action", "policy entry"))
        if kind not in ("set_multiplier", "set_rate"):
            raise ScenarioError(f"policy entry: unknown action {kind!r}")
        policy.append(
            PolicyAction(
                time=_as_float(_require(raw, "time", "policy entry"), "policy time"),
                kind=kind,
                target=_text(raw, "target", "policy entry"),
                value=as_fraction(_require(raw, "value", "policy entry"), "policy value"),
            )
        )

    shocks = []
    for raw in _entries(data, "shock_schedule"):
        shocks.append(
            ShockSpec(
                time=_as_float(_require(raw, "time", "shock entry"), "shock time"),
                channel=_text(raw, "channel", "shock entry"),
                amount=as_money(_require(raw, "amount", "shock entry"), "shock amount"),
            )
        )

    figures = []
    for raw in _entries(data, "figures"):
        fig = FigureSpec(
            name=_text(raw, "name", "figure entry"),
            channel=_text(raw, "channel", "figure entry", False),
            stock=_text(raw, "stock", "figure entry", False),
        )
        if (fig.channel is None) == (fig.stock is None):
            raise ScenarioError(f"figure {fig.name!r}: exactly one of channel/stock required")
        figures.append(fig)

    rates = {name: Fraction(0) for name in DEFAULT_RATE_NAMES}
    raw_rates = data.get("rates", {})
    if not isinstance(raw_rates, Mapping):
        raise ScenarioError("rates must be an object")
    for key, value in raw_rates.items():
        rates[str(key)] = as_fraction(value, f"rate {key!r}")

    return ScenarioSpec(
        name=name,
        seed=seed,
        term_length=term_length,
        agents=tuple(agents),
        channels=tuple(channels),
        issuance=amounts("issuance_schedule"),
        securities=amounts("securities_schedule"),
        policy=tuple(sorted(policy, key=lambda p: p.time)),
        shocks=tuple(sorted(shocks, key=lambda s: s.time)),
        figures=tuple(figures),
        rates=rates,
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
