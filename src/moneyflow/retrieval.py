"""Retracing recorded balance sheets from hidden initial rate offsets.

A record only shows the settled, identity-satisfying totals; the event-level
adjustment activity that produced it is hidden. This module searches for a
set of initial per-agent rate offsets (deviations of true channel rates from
the scenario, invisible to partners until they settle) whose replay
reproduces a target record.

Success means reproduction, not parameter recovery: the inverse problem may
be non-unique, so fits are judged only by `reproduction_error(simulated,
target)`, the normalized RMS error over every figure of the target record,
all counting alike.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import inf, sqrt
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from . import rng
from .engine import apportion
from .network import NetworkState, build_network
from .recorder import BalanceSheet, Record, RecordError, record_terms, run_record
from .scenario import ScenarioError, ScenarioSpec


class Assignment(NamedTuple):
    """Hidden initial offsets: per-agent rate deviations and optional gain overrides.

    An agent's offset is spread over its adjustable outgoing channels by
    largest remainder, changing the true initial rates while every settlement
    snapshot stays at the scenario values. Offsets must leave all rates
    non-negative.
    """

    offsets: Mapping[str, int] = MappingProxyType({})
    gain_overrides: Mapping[str, Fraction] = MappingProxyType({})

    def to_dict(self) -> dict:
        return {
            "offsets": dict(self.offsets),
            "gain_overrides": {k: str(v) for k, v in self.gain_overrides.items()},
        }


def apply_assignment(state: NetworkState, assignment: Assignment) -> NetworkState:
    """Perturb a freshly built state: true rates move, snapshots do not.

    Validates the whole assignment before touching the state, so a rejected
    assignment leaves it intact.
    """
    planned: list[tuple[str, int]] = []
    for agent_id in sorted(assignment.offsets):
        offset = assignment.offsets[agent_id]
        if agent_id not in state.agents:
            raise ScenarioError(f"assignment names unknown agent {agent_id!r}")
        if state.agents[agent_id].continuity_exempt:
            raise ScenarioError(f"assignment targets exempt agent {agent_id!r}")
        if offset:
            planned.extend(_offset_moves(state, agent_id, offset))
    for agent_id, gain in assignment.gain_overrides.items():
        if agent_id not in state.agents:
            raise ScenarioError(f"gain override names unknown agent {agent_id!r}")
        if gain < 0:
            raise ScenarioError(f"gain override for {agent_id!r} must be non-negative")
    for cid, part in planned:
        state.channels[cid].rate += part
    for agent_id, gain in assignment.gain_overrides.items():
        state.agents[agent_id].gain = gain
    return state


def _offset_moves(state: NetworkState, agent_id: str, offset: int) -> list[tuple[str, int]]:
    """(channel, rate change) of one agent's offset, spread over its adjustable outgoing rates."""
    channel_ids = state.adjustable_outgoing[agent_id]
    if not channel_ids:
        raise ScenarioError(f"agent {agent_id!r} has no adjustable outgoing channel for its offset")
    parts = apportion(offset, [state.channels[cid].rate for cid in channel_ids])
    for cid, part in zip(channel_ids, parts):
        if state.channels[cid].rate + part < 0:
            raise ScenarioError(
                f"offset {offset} for agent {agent_id!r} drives channel {cid!r} below zero"
            )
    return list(zip(channel_ids, parts))


def retrace(assignment: Assignment, spec: ScenarioSpec, n_terms: int) -> Record:
    """Replay the scenario from a perturbed start and compile its record."""
    state = build_network(spec)
    apply_assignment(state, assignment)
    return run_record(state, n_terms)


def _sheet_row(sheet: BalanceSheet) -> tuple[tuple, list[int | Fraction]]:
    """One sheet's figure layout and values: agent stock/flow totals, then aggregates.

    The layout, (agent ids, aggregate names), names the values' keys in
    order (`_layout_keys`); sheets of one run share it.
    """
    aggregates = sheet.aggregates()
    values: list[int | Fraction] = []
    for line in sheet.agents.values():
        values += (line.closing, line.inflow, line.outflow)
    values += aggregates.values()
    return (tuple(sheet.agents), tuple(aggregates)), values


def _layout_keys(layout: tuple) -> list[str]:
    """Figure keys in value order: "closing:ID", "inflow:ID" and "outflow:ID" per agent, then the aggregate names."""
    agent_ids, aggregate_names = layout
    return ([f"{kind}:{aid}" for aid in agent_ids for kind in ("closing", "inflow", "outflow")]
            + list(aggregate_names))


class _Yardstick:
    """The target's side of `reproduction_error`: its figure rows and scales, built once.

    Term t's target sheet holds the keys `wanted[t]`, listed in the order in
    which the target's keys first appear; `rows[t]` and `scale_rows[t]` are
    their values as floats and their scales. `cells` lists every (term,
    position) pair with its target value and scale, figure-major: the order
    of the sum in `complete`. A simulated sheet pairs with term t through the
    position map of its layout in `orders[t]` (`row`). Terms of equal
    `wanted` share one such dict, so each map is worked out once per
    (layout, wanted), and one float row per sheet serves a partial sum and
    the complete error alike.
    """

    def __init__(self, target: Record):
        figures = [dict(zip(_layout_keys(layout), values))
                   for layout, values in map(_sheet_row, target.sheets)]
        keys = list(dict.fromkeys(key for sheet in figures for key in sheet))
        scales: dict[str, float] = {}  # max(1, max |target value|) per figure
        for key in keys:
            try:
                scales[key] = max(1.0, max(abs(float(sheet[key]))
                                           for sheet in figures if key in sheet))
            except OverflowError:
                raise RecordError(f"target figure {key!r} exceeds the float range") from None
        self.wanted = [tuple(key for key in keys if key in sheet) for sheet in figures]
        maps: dict[tuple, dict[tuple, tuple[int, ...]]] = {}
        self.orders = [maps.setdefault(wanted, {}) for wanted in self.wanted]
        self.rows = [self.row(sheet, t) for t, sheet in enumerate(target.sheets)]
        self.scale_rows = [[scales[key] for key in wanted] for wanted in self.wanted]
        positions = [{key: j for j, key in enumerate(wanted)} for wanted in self.wanted]
        self.cells = [(t, at[key], self.rows[t][at[key]], scales[key])
                      for key in keys for t, at in enumerate(positions) if key in at]

    def row(self, sheet: BalanceSheet, term: int) -> list[float]:
        """The sheet's figures as floats in `wanted[term]` order.

        Raises RecordError unless the sheet holds exactly those keys, once each.
        """
        layout, values = _sheet_row(sheet)
        orders = self.orders[term]
        order = orders.get(layout)
        if order is None:
            keys, wanted = _layout_keys(layout), self.wanted[term]
            if sorted(keys) != sorted(wanted):
                differ = sorted(k for k in {*keys, *wanted} if keys.count(k) != wanted.count(k))
                raise RecordError(f"term {term}: figure sets differ: {differ}")
            positions = {name: j for j, name in enumerate(keys)}
            order = orders[layout] = tuple(positions[name] for name in wanted)
        return list(map(float, map(values.__getitem__, order)))

    def error(self, simulated: Record) -> float:
        """`reproduction_error` of `simulated` against the target."""
        if len(simulated.sheets) != len(self.rows):
            raise RecordError(
                f"term count mismatch: simulated has {len(simulated.sheets)}, "
                f"target has {len(self.rows)}"
            )
        return self.complete(simulated.sheets, [])

    def complete(self, sheets: Sequence[BalanceSheet], rows: list[list[float]]) -> float:
        """The error of as many sheets as the target has, of which the first
        ``len(rows)`` are already read as `row`s.

        The root mean square of the scaled differences over `cells`.
        """
        rows += [self.row(sheet, t) for t, sheet in enumerate(sheets[len(rows):], len(rows))]
        total = 0.0
        for t, j, target, scale in self.cells:
            diff = (rows[t][j] - target) / scale
            total += diff ** 2
        return sqrt(total / len(self.cells)) if self.cells else 0.0


def reproduction_error(simulated: Record, target: Record) -> float:
    """Normalized RMS distance between two records with the same figures.

    Each figure is scaled by max(1, max |target value|) so heterogeneous
    magnitudes compare fairly; the error is the root mean square of the
    scaled differences over all (term, figure) pairs, every figure counting
    alike. Figure keys are the aggregate names plus per-agent keys named
    "closing:ID", "inflow:ID", and "outflow:ID". Keys are compared term by
    term: each simulated sheet must hold exactly the keys of the target's
    sheet of the same term, once each, or the records are rejected.
    """
    return _Yardstick(target).error(simulated)


class FitConfig(NamedTuple):
    budget: int = 10_000
    tolerance: float = 1e-3
    seed: int = 0
    starts: int = 4
    prefix_terms: int | None = None


class FitResult(NamedTuple):
    best: Assignment
    error: float
    evaluations: int
    converged: bool
    trace: tuple[tuple[int, float], ...]

    def to_dict(self) -> dict:
        return {
            "best": self.best.to_dict(),
            "error": self.error,
            "evaluations": self.evaluations,
            "converged": self.converged,
            "trace": [[i, e] for i, e in self.trace],
        }


# Relative slack on the early-exit test. It must exceed the rounding of the
# float sums compared, about (number of terms added) * 2**-53 relative; 1e-9
# covers records of up to a million (term, figure) pairs.
_MARGIN = 1e-9
# Seeded starts draw each offset from [-START_RANGE, START_RANGE]. The
# informed start lies near the answer, so its pattern search begins with steps
# of INFORMED_STEP; the zero and seeded starts' begin with INITIAL_STEP.
START_RANGE = 16
INITIAL_STEP = 8
INFORMED_STEP = 3


class _Objective:
    """Cached, budget-counting evaluation of one offset vector, bounded by the incumbent.

    A call with `bound` (the incumbent error) replays the vector term by term
    and adds each term's squared scaled differences as soon as that term's
    sheet exists; once the partial sum exceeds bound**2 * count * (1 + margin)
    it stops and returns a value at or above `bound`.

    Exactness: the reference error is sqrt(S / count), where count is the
    number of the target's (term, figure) cells and S adds their squares in
    figure-major order. Each term's squares are cells of S, since keys are
    compared term by term, and every square is non-negative, so the partial
    sum over the terms replayed so far is at most the exact S; the two float
    sums differ from their exact values by far less than the margin. Hence a
    stopped vector's reference error is at least `bound` and at least
    sqrt(partial / count) * (1 - margin), and the larger of the two is
    returned and cached as a floor. The pattern and polish phases only ask
    whether a candidate beats the incumbent, which such a vector cannot, so
    they take the same path. A vector that runs all its terms gets the
    reference value from the same rows (`_Yardstick.complete`), bit for bit.

    A replay whose figures, or their squared differences from the target,
    pass the float range scores inf, which no vector can be worse than. One
    whose sheet holds other keys than the target's of the same term raises
    RecordError (`_Yardstick.row`).

    Each new vector counts as one evaluation, stopped or not. A floor queried
    with a higher bound is replayed in full and not counted again.
    """

    def __init__(self, target: Record, agent_ids: Sequence[str], base_state: NetworkState):
        self.agent_ids = agent_ids
        self.base_state = base_state
        self.capacities = [sum(base_state.channels[cid].rate for cid in base_state.adjustable_outgoing[aid])
                           for aid in agent_ids]
        self.moves: dict[tuple[str, int], list[tuple[str, int]]] = {}  # by (agent, offset)
        self.yardstick = _Yardstick(target)
        self.cache: dict[tuple[int, ...], float] = {}
        self.floors: dict[tuple[int, ...], float] = {}
        self.evaluations = 0
        self.early_exits = 0

    def valid(self, vector: tuple[int, ...]) -> bool:
        return all(offset >= -capacity for offset, capacity in zip(vector, self.capacities))

    def __call__(self, vector: tuple[int, ...], bound: float = inf) -> float:
        exact = self.cache.get(vector)
        if exact is not None:
            return exact
        floor = self.floors.get(vector)
        if floor is not None:
            if floor >= bound:
                return floor
            bound = inf  # replay in full, already counted
        else:
            self.evaluations += 1
        try:
            error, complete = self._replay(vector, bound)
        except OverflowError:  # a replayed figure, or its square, is past the float range
            error, complete = inf, True
        if complete:
            self.floors.pop(vector, None)
            self.cache[vector] = error
        else:
            self.floors[vector] = error
            self.early_exits += 1
        return error

    def _replay(self, vector: tuple[int, ...], bound: float) -> tuple[float, bool]:
        """(error, True) from a full replay, or (floor, False) from a stopped one."""
        state = self.base_state.clone()
        for aid, offset in zip(self.agent_ids, vector):
            if offset:
                moves = self.moves.get((aid, offset))
                if moves is None:
                    moves = self.moves[aid, offset] = _offset_moves(self.base_state, aid, offset)
                for cid, part in moves:
                    state.channels[cid].rate += part
        terms = record_terms(state)
        yardstick = self.yardstick
        count = len(yardstick.cells)
        limit = bound * bound * count * (1 + _MARGIN)
        partial = 0.0
        sheets: list[BalanceSheet] = []
        rows: list[list[float]] = []
        # The last term completes the record: it is computed exactly.
        for t in range(len(yardstick.rows) - 1) if limit < inf else ():
            sheets.append(next(terms))
            row = yardstick.row(sheets[-1], t)
            rows.append(row)
            for s, g, scale in zip(row, yardstick.rows[t], yardstick.scale_rows[t]):
                diff = (s - g) / scale
                partial += diff ** 2
            if partial > limit:
                return max(bound, sqrt(partial / count) * (1 - _MARGIN)), False
        while len(sheets) < len(yardstick.rows):
            sheets.append(next(terms))
        return yardstick.complete(sheets, rows), True


def _search_directions(dims: int) -> list[tuple[int, ...]]:
    """Coordinate axes plus low-order diagonals.

    The record objective is a staircase with long diagonal valleys (shifting
    several offsets together often trades off against shifting one), so pure
    coordinate moves stall; the composite directions bridge those valleys.
    """
    directions = [tuple(1 if j == d else 0 for j in range(dims)) for d in range(dims)]
    if dims > 1:
        directions.append((1,) * dims)
        for a, b in combinations(range(dims), 2):
            directions.append(tuple(1 if j in (a, b) else 0 for j in range(dims)))
            directions.append(tuple(1 if j == a else (-1 if j == b else 0) for j in range(dims)))
    return directions


class _Stop(Exception):
    """Ends a fit: the budget is spent or an error meets the tolerance."""


def _pattern_search(x: tuple[int, ...], fx: float, directions: Sequence[tuple[int, ...]],
                    probe, step: int) -> tuple[tuple[int, ...], float]:
    """Hooke & Jeeves moves from `x` until every step collapses below one unit.

    Every direction starts at `step`; its step doubles after a move along it
    and halves after none. `probe(candidate, fx)` gives a candidate's error
    bounded by `fx`.
    """
    steps = [step] * len(directions)
    while any(s >= 1 for s in steps):
        for d, direction in enumerate(directions):
            if steps[d] < 1:
                continue
            for sign in (1, -1):
                candidate = tuple(xi + sign * steps[d] * vi for xi, vi in zip(x, direction))
                fc = probe(candidate, fx)
                if fc < fx:
                    x, fx = candidate, fc
                    steps[d] *= 2
                    break
            else:
                steps[d] //= 2
    return x, fx


def _informed_start(target: Record, spec: ScenarioSpec, agent_ids: Sequence[str]) -> tuple[int, ...]:
    """Crude inverse read: term-0 outflow excess over the scenario's flow rates.

    Before corrections bite, an agent's first-term outflow total is roughly its
    perturbed rates integrated over one term, so the excess estimates its offset.
    """
    sheet = target.sheets[0]
    length = Fraction(repr(spec.term_length))
    estimate = []
    for aid in agent_ids:
        spec_out = sum(
            int(c.rate * c.multiplier * length) for c in spec.channels if c.source == aid
        )
        line = sheet.agents.get(aid)
        estimate.append((line.outflow - spec_out) if line is not None else 0)
    return tuple(estimate)


def fit(target: Record, spec: ScenarioSpec, config: FitConfig = FitConfig()) -> FitResult:
    """Multi-start direct search over integer offset vectors.

    The vectors hold one offset per non-exempt agent with an adjustable
    outgoing channel; any other agent stays at offset 0 and is left out of
    `best.offsets`, so with no such agent the fit is the zero assignment's
    one evaluation.

    The zero assignment is evaluated first, so a target it reproduces costs
    one evaluation. Then the starts run in this order: a crude inverse read of
    the target's first term (`_informed_start`, initial step INFORMED_STEP),
    the zero assignment, and seeded uniform draws in
    [-START_RANGE, START_RANGE] (both at INITIAL_STEP), `starts` in all but
    never fewer than the first two.
    Each start runs a pattern search over coordinate and diagonal directions
    (step doubles on improvement, halves on failure, a start ends once every
    step is below one minor unit), finished by a small exhaustive box polish
    around the stall point. The best point over all starts wins; the search
    stops as soon as the tolerance is met. Budget exhaustion is not an error,
    it simply returns converged=False.

    Candidates are replayed term by term and a losing one stops as soon as its
    partial error shows it cannot beat the current point (see `_Objective`);
    the path and result are those of full replays. `evaluations` counts each
    distinct offset vector once, whether its replay ran to the end or stopped.
    """
    if config.budget <= 0:
        raise ValueError("fit budget must be positive")
    prefix = config.prefix_terms
    if prefix is not None and not 0 < prefix <= len(target.sheets):
        raise RecordError(f"prefix of {prefix} terms is outside the target's 1..{len(target.sheets)}")
    n_terms = prefix if prefix is not None else len(target.sheets)
    if n_terms == 0:
        raise RecordError("target record has no terms")
    if target.term_length != spec.term_length:
        raise RecordError(f"target record has term_length {target.term_length!r}, "
                          f"but the scenario has {spec.term_length!r}")
    trimmed = Record(target.sheets[:n_terms], target.fingerprint,
                     target.term_length, target.initial_total_stock)

    base = build_network(spec)
    agent_ids = tuple(aid for aid in base.agent_order
                      if base.adjustable_outgoing[aid] and not base.agents[aid].continuity_exempt)
    objective = _Objective(trimmed, agent_ids, base)
    dims = len(agent_ids)
    directions = _search_directions(dims)
    start_key = rng.stream_key(config.seed, rng.string_key("fit-starts"))

    def clamp_valid(vec: tuple[int, ...]) -> tuple[int, ...]:
        return vec if objective.valid(vec) else tuple(max(v, 0) for v in vec)

    def start_point(index: int) -> tuple[int, ...]:
        if index == 0:
            return (0,) * dims
        if index == 1:
            return clamp_valid(_informed_start(trimmed, spec, agent_ids))
        span = 2 * START_RANGE + 1
        vec = tuple(
            rng.below(span, start_key, index * dims + d) - START_RANGE
            for d in range(dims)
        )
        return clamp_valid(vec)

    best_error = inf
    best_vector: tuple[int, ...] | None = None
    trace: list[tuple[int, float]] = []

    def probe(vector: tuple[int, ...], bound: float = inf) -> float:
        """The vector's error (inf if invalid), bounded by `bound`; records a new best."""
        nonlocal best_error, best_vector
        if objective.evaluations >= config.budget:
            raise _Stop
        if not objective.valid(vector):
            return inf
        error = objective(vector, bound)
        if error < best_error:
            best_error, best_vector = error, vector
            trace.append((objective.evaluations, error))
            if error <= config.tolerance:
                raise _Stop
        return error

    try:
        probe(start_point(0))  # a target retraced at zero offsets costs one evaluation
        for start_index in (1, 0, *range(2, config.starts)):
            x = start_point(start_index)  # always valid: clamped at 0
            fx = probe(x)
            step = INFORMED_STEP if start_index == 1 else INITIAL_STEP
            polish_radius = 2
            while True:
                x, fx = _pattern_search(x, fx, directions, probe, step)
                # Polish phase: exhaustive small box around the stall point.
                improved = False
                for offsets in product(range(-polish_radius, polish_radius + 1), repeat=dims):
                    if not any(offsets):
                        continue
                    candidate = tuple(xi + o for xi, o in zip(x, offsets))
                    fc = probe(candidate, fx)
                    if fc < fx:
                        x, fx = candidate, fc
                        improved = True
                # A way out reruns the pattern phase; a stall widens the box once.
                if not improved:
                    if polish_radius == 3:
                        break
                    polish_radius = 3
    except _Stop:
        pass

    assert best_vector is not None
    return FitResult(
        best=Assignment(offsets=dict(zip(agent_ids, best_vector))),
        error=best_error,
        evaluations=objective.evaluations,
        converged=best_error <= config.tolerance,
        trace=tuple(trace),
    )
