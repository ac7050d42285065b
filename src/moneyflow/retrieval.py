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

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from math import inf, sqrt
from typing import Mapping, Sequence

from . import rng
from .engine import apportion
from .network import NetworkState, build_network
from .recorder import BalanceSheet, Record, RecordError, Recorder, run_record
from .scenario import ScenarioError, ScenarioSpec


@dataclass(frozen=True)
class Assignment:
    """Hidden initial offsets: per-agent rate deviations and optional gain overrides.

    An agent's offset is spread over its adjustable outgoing channels by
    largest remainder, changing the true initial rates while every settlement
    snapshot stays at the scenario values. Offsets must leave all rates
    non-negative.
    """

    offsets: Mapping[str, int] = field(default_factory=dict)
    gain_overrides: Mapping[str, Fraction] = field(default_factory=dict)

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
        if offset == 0:
            continue
        channel_ids = state.adjustable_outgoing[agent_id]
        if not channel_ids:
            raise ScenarioError(f"agent {agent_id!r} has no adjustable outgoing channel for its offset")
        weights = [state.channels[cid].rate for cid in channel_ids]
        parts = apportion(offset, weights)
        for cid, part in zip(channel_ids, parts):
            if state.channels[cid].rate + part < 0:
                raise ScenarioError(
                    f"offset {offset} for agent {agent_id!r} drives channel {cid!r} below zero"
                )
            planned.append((cid, part))
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


def retrace(assignment: Assignment, spec: ScenarioSpec, n_terms: int) -> Record:
    """Replay the scenario from a perturbed start and compile its record."""
    state = build_network(spec)
    apply_assignment(state, assignment)
    return run_record(state, n_terms)


def _sheet_figures(sheet: BalanceSheet) -> list[tuple[str, int | Fraction]]:
    """One sheet's (figure key, value) rows: agent stock/flow totals, then aggregates."""
    rows: list[tuple[str, int | Fraction]] = []
    for aid, line in sheet.agents.items():
        rows.append((f"closing:{aid}", line.closing))
        rows.append((f"inflow:{aid}", line.inflow))
        rows.append((f"outflow:{aid}", line.outflow))
    rows.extend(sheet.aggregates().items())
    return rows


def _figure_values(record: Record) -> dict[str, list[int | Fraction]]:
    """Time series per figure key: agent stock/flow totals plus all aggregates."""
    series: dict[str, list[int | Fraction]] = {}
    for sheet in record.sheets:
        for name, value in _sheet_figures(sheet):
            series.setdefault(name, []).append(value)
    return series


class _Yardstick:
    """The target's side of `reproduction_error`: its figure series and scales, built once."""

    def __init__(self, target: Record):
        self.target = target
        self.series = _figure_values(target)
        self._scales: dict[str, float] = {}

    def scale(self, name: str) -> float:
        """max(1, max |target value|) of one figure, computed on first use."""
        scale = self._scales.get(name)
        if scale is None:
            scale = self._scales[name] = max(1.0, max(abs(float(v)) for v in self.series[name]))
        return scale

    def error(self, simulated: Record) -> float:
        """`reproduction_error` of `simulated` against the target."""
        target, tgt_series = self.target, self.series
        if len(simulated.sheets) != len(target.sheets):
            raise ValueError(
                f"term count mismatch: simulated has {len(simulated.sheets)}, target has {len(target.sheets)}"
            )
        sim_series = _figure_values(simulated)
        if set(sim_series) != set(tgt_series):
            missing = set(tgt_series) ^ set(sim_series)
            raise ValueError(f"figure sets differ: {sorted(missing)}")
        if not tgt_series:
            return 0.0
        total = 0.0
        count = 0
        for name, tgt in tgt_series.items():
            sim = sim_series[name]
            scale = self.scale(name)
            for s, t in zip(sim, tgt):
                diff = (float(s) - float(t)) / scale
                total += diff ** 2
                count += 1
        return sqrt(total / count)


def reproduction_error(simulated: Record, target: Record) -> float:
    """Normalized RMS distance between two records with the same figures.

    Each figure is scaled by max(1, max |target value|) so heterogeneous
    magnitudes compare fairly; the error is the root mean square of the
    scaled differences over all (term, figure) pairs, every figure counting
    alike. Figure keys are the aggregate names plus per-agent series named
    "closing:ID", "inflow:ID", and "outflow:ID"; records whose keys differ
    are rejected.
    """
    return _Yardstick(target).error(simulated)


@dataclass(frozen=True)
class FitConfig:
    budget: int = 10_000
    tolerance: float = 1e-3
    seed: int = 0
    starts: int = 4
    prefix_terms: int | None = None


@dataclass(frozen=True)
class FitResult:
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
# Seeded starts draw each offset from [-START_RANGE, START_RANGE]; every
# pattern search begins with steps of INITIAL_STEP.
START_RANGE = 16
INITIAL_STEP = 8


class _Objective:
    """Cached, budget-counting evaluation of one offset vector, bounded by the incumbent.

    A call with `bound` (the incumbent error) replays the vector term by term
    and adds each term's squared scaled differences as soon as that term's
    sheet exists; once the partial sum exceeds bound**2 * count * (1 + margin)
    it stops and returns a value at or above `bound`.

    Exactness: the reference error is sqrt(S / count), where S adds the same
    per-(term, figure) squares in figure-major order. Every square is
    non-negative, so the partial sum over the terms replayed so far is at most
    the exact S; the two float sums differ from their exact values by far less
    than the margin. Hence a stopped vector's reference error is at least
    `bound` and at least sqrt(partial / count) * (1 - margin), and the larger of
    the two is returned and cached as a floor. The pattern and polish phases
    only ask whether a candidate beats the incumbent, which such a vector
    cannot, so they take the same path. A vector that runs all its terms gets
    the reference value through the same `_Yardstick.error`, bit for bit.

    Each new vector counts as one evaluation, stopped or not. A floor queried
    with a higher bound is replayed in full and not counted again. The early
    exit needs every sheet to hold the same figure keys, once each, in target
    and replay alike (a `set_rate` on a rate the scenario does not declare adds
    a key mid-run); otherwise every call replays in full.
    """

    def __init__(self, target: Record, spec: ScenarioSpec, agent_ids: Sequence[str],
                 n_terms: int, base_state: NetworkState):
        self.agent_ids = agent_ids
        self.n_terms = n_terms
        self.base_state = base_state
        self.yardstick = _Yardstick(target)
        self.cache: dict[tuple[int, ...], float] = {}
        self.floors: dict[tuple[int, ...], float] = {}
        self.evaluations = 0
        self.early_exits = 0
        layouts = [_sheet_figures(sheet) for sheet in target.sheets]
        self.keys = dict(layouts[0]).keys()
        self.rows = self._term_rows(layouts, spec)
        self.count = len(self.rows[0]) * n_terms if self.rows else 0

    def _term_rows(self, layouts: list[list[tuple[str, int | Fraction]]],
                   spec: ScenarioSpec) -> list[list[tuple[str, float, float]]]:
        """Per target term, (key, scale, value) of each figure.

        Empty when the figure layout rules out the early exit.
        """
        tables = [dict(figures) for figures in layouts]
        if not all(self._regular(figures, values) for figures, values in zip(layouts, tables)):
            return []
        if any(a.kind == "set_rate" and a.target not in spec.rates for a in spec.policy):
            return []
        scale = self.yardstick.scale
        return [[(name, scale(name), float(values[name])) for name in self.keys] for values in tables]

    def _regular(self, figures: list, values: dict) -> bool:
        """A sheet holds each figure key once, and exactly the target's keys."""
        return len(values) == len(figures) and values.keys() == self.keys

    def valid(self, vector: tuple[int, ...]) -> bool:
        for aid, offset in zip(self.agent_ids, vector):
            if offset >= 0:
                continue
            capacity = sum(self.base_state.channels[cid].rate
                           for cid in self.base_state.adjustable_outgoing[aid])
            if offset < -capacity:
                return False
        return True

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
        error, complete = self._replay(vector, bound)
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
        apply_assignment(state, Assignment(offsets=dict(zip(self.agent_ids, vector))))
        recorder = Recorder(state)
        limit = bound * bound * self.count * (1 + _MARGIN) if self.rows else inf
        partial = 0.0
        sheets = []
        for rows in self.rows if limit < inf else ():
            if len(sheets) == self.n_terms - 1:
                break  # the last term completes the record: compute it exactly
            sheet = recorder.record_term()
            sheets.append(sheet)
            figures = _sheet_figures(sheet)
            values = dict(figures)
            if not self._regular(figures, values):
                break  # the reference pairs this replay otherwise, or rejects it
            for name, scale, t in rows:
                diff = (float(values[name]) - t) / scale
                partial += diff ** 2
            if partial > limit:
                return max(bound, sqrt(partial / self.count) * (1 - _MARGIN)), False
        while len(sheets) < self.n_terms:
            sheets.append(recorder.record_term())
        return self.yardstick.error(Record(tuple(sheets))), True


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

    Starts are: the zero assignment, a crude inverse read of the target's
    first term, then seeded uniform draws in [-START_RANGE, START_RANGE].
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
    agent_ids = tuple(sorted(a.id for a in spec.agents if not a.continuity_exempt))
    if not agent_ids:
        raise ScenarioError("scenario has no non-exempt agents to fit")
    prefix = config.prefix_terms
    if prefix is not None and not 0 < prefix <= len(target.sheets):
        raise RecordError(f"prefix of {prefix} terms is outside the target's 1..{len(target.sheets)}")
    n_terms = prefix if prefix is not None else len(target.sheets)
    if n_terms == 0:
        raise RecordError("target record has no terms")
    trimmed = Record(target.sheets[:n_terms], target.fingerprint,
                     target.term_length, target.initial_total_stock)

    objective = _Objective(trimmed, spec, agent_ids, n_terms, build_network(spec))
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

    best_error = float("inf")
    best_vector: tuple[int, ...] | None = None
    trace: list[tuple[int, float]] = []

    def consider(vector: tuple[int, ...], error: float) -> None:
        nonlocal best_error, best_vector
        if error < best_error:
            best_error = error
            best_vector = vector
            trace.append((objective.evaluations, error))

    done = False
    for start_index in range(max(2, config.starts)):
        if done:
            break
        x = start_point(start_index)
        if not objective.valid(x) or objective.evaluations >= config.budget:
            continue
        fx = objective(x)
        consider(x, fx)
        if best_error <= config.tolerance:
            break
        polish_radius = 2
        while not done:
            # Pattern phase: doubled/halved steps per direction until all collapse.
            steps = [INITIAL_STEP] * len(directions)
            while any(s >= 1 for s in steps) and not done:
                for d, direction in enumerate(directions):
                    if steps[d] < 1:
                        continue
                    moved = False
                    for sign in (1, -1):
                        if objective.evaluations >= config.budget:
                            done = True
                            break
                        candidate = tuple(
                            xi + sign * steps[d] * vi for xi, vi in zip(x, direction)
                        )
                        if not objective.valid(candidate):
                            continue
                        fc = objective(candidate, fx)
                        consider(candidate, fc)
                        if fc < fx:
                            x, fx = candidate, fc
                            steps[d] *= 2
                            moved = True
                            break
                    if done:
                        break
                    if not moved:
                        steps[d] //= 2
                    if best_error <= config.tolerance:
                        done = True
                        break
            if done:
                break
            # Polish phase: exhaustive small box around the stall point.
            improved = False
            for offsets in product(range(-polish_radius, polish_radius + 1), repeat=dims):
                if all(o == 0 for o in offsets):
                    continue
                if objective.evaluations >= config.budget:
                    done = True
                    break
                candidate = tuple(xi + o for xi, o in zip(x, offsets))
                if not objective.valid(candidate):
                    continue
                fc = objective(candidate, fx)
                consider(candidate, fc)
                if fc < fx:
                    x, fx = candidate, fc
                    improved = True
                if best_error <= config.tolerance:
                    done = True
                    break
            if done:
                break
            if improved:
                continue  # polish found a way out; rerun the pattern phase
            if polish_radius == 2:
                polish_radius = 3
                continue
            break
        if best_error <= config.tolerance:
            done = True

    assert best_vector is not None
    return FitResult(
        best=Assignment(offsets=dict(zip(agent_ids, best_vector))),
        error=best_error,
        evaluations=objective.evaluations,
        converged=best_error <= config.tolerance,
        trace=tuple(trace),
    )
