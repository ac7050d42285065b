"""Term-end balance sheets: the globally synchronized view of the network.

The recorder plays the part of the monetary authority. At every term boundary
it forces a settlement of all channels at once (a global cut the dynamics
themselves never perform); a term's balance sheet is the money moved between
two consecutive cuts (`record_terms`). The forced cut is flagged `observer`
in the event log: it flushes accruals and refreshes snapshots, so the
recorder is not a perfectly passive observer, and downstream consumers can
tell its settlements apart from organic ones.

Sheets satisfy the accounting identities exactly, by construction;
`verify_record` re-checks them and reports any discrepancy rather than
raising. Records serialize to CSV and JSON with a documented, bit-exact
encoding; see docs/record-format.md.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, takewhile
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple

# `run` is not called here; mfbench's tracer test reads it as `moneyflow.recorder.run`.
from .engine import _advance, _catch_up, run, settle_all  # noqa: F401
from .network import _ZERO, NetworkState
from .scenario import (AGENT_FIGURES, _UNRECORDABLE, DEFAULT_RATE_NAMES, ScenarioError, _as_float,
                       _read_utf8, as_fraction, rational_str)


class RecordError(ValueError):
    """Raised for malformed record files or violated record invariants."""


class AgentLine(NamedTuple):
    opening: int
    inflow: int
    outflow: int
    closing: int


# A sheet's aggregates hold the two default rates, 0 where the sheet lacks one.
_DEFAULT_RATES = dict.fromkeys(DEFAULT_RATE_NAMES, _ZERO)


class BalanceSheet(NamedTuple):
    term_index: int
    agents: Mapping[str, AgentLine]
    notes_outstanding: int
    securities_outstanding: int
    rates: Mapping[str, Fraction]
    figures: Mapping[str, int]

    def aggregates(self) -> dict[str, int | Fraction]:
        """The two totals, the two default rates, the sheet's other rates, then its figures."""
        return {"notes_outstanding": self.notes_outstanding,
                "government_securities_outstanding": self.securities_outstanding,
                **_DEFAULT_RATES, **self.rates, **self.figures}


@dataclass(frozen=True)
class Record:
    """A run's balance sheets, one a term; a dataclass as `__post_init__` checks their indices."""

    sheets: tuple[BalanceSheet, ...]
    fingerprint: str = ""
    term_length: float = 1.0
    initial_total_stock: int = 0

    def __post_init__(self) -> None:
        for i, sheet in enumerate(self.sheets):
            if sheet.term_index != i:
                raise RecordError(
                    f"term indices must be contiguous from 0; position {i} holds term {sheet.term_index}"
                )


class IdentityCheck(NamedTuple):
    name: str
    passed: bool
    discrepancy: int


class IdentityReport(NamedTuple):
    checks: tuple[IdentityCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[IdentityCheck]:
        return [c for c in self.checks if not c.passed]

    def summary(self) -> str:
        failures = ", ".join(f"{c.name} (off by {c.discrepancy})" for c in self.failures())
        return f"accounting identities violated: {failures}"


def record_terms(state: NetworkState) -> Iterator[BalanceSheet]:
    """Term-by-term sheets of one state, read off its running tallies.

    Each sheet runs the state on to the next term boundary, in one pass of
    the event loop (see `engine.run`), and takes the observer cut there (see
    the module docstring). Its sheet is the money moved since the previous
    cut: the change in every agent's `received` and `paid` tallies and in
    the `settled` tally of each flow figure's channel. The closing stocks,
    notes, securities and rates are the state's own at the cut. A cut that
    replays the one before it was, like that one, the only move of its term
    (`settle_all` says why), so its sheet repeats the last sheet's flows.

    The state must stand at time 0: a fresh state, or a clone of one such
    as the first checkpoint `run_record` takes. That is checked, and the
    opening tallies are read, on the call. The generator returned yields one
    sheet per term, without end. A dormant agent's `event_count` and
    `next_time` may lag behind the cut; `run(state, 0)` brings them up to
    date.
    """
    spec = state.spec
    length = spec.term_length
    if state.now != 0:
        raise ValueError(f"a record starts at time 0, but the state is at {state.now}")
    agents, channels = state.agents, state.channels
    flow_figures = [(f.name, f.channel) for f in spec.figures if f.channel is not None]
    stock_figures = [(f.name, f.stock) for f in spec.figures if f.stock is not None]

    def tallies() -> tuple[dict[str, tuple[int, int, int]], dict[str, int]]:
        """Each agent's stock, received and paid, and each flow figure's settled total."""
        return ({aid: (a.stock, a.received, a.paid) for aid, a in agents.items()},
                {name: channels[cid].settled for name, cid in flow_figures})

    def sheets(opened) -> Iterator[BalanceSheet]:
        # Term k ends at (k + 1) * length, the very float at which a `run`
        # from now = k * length stops, now + ((k + 1) * length - now): at
        # k = 0 now is 0, and for k >= 1 the two products lie within a factor
        # of two of each other, so by Sterbenz's lemma their difference is exact.
        ends = ((k + 1) * length for k in count())
        sheet, repeats = None, 0  # the last sheet, and the replayed cuts since `opened` was read
        for k, _ in enumerate(_advance(state, ends)):
            last = state._last_cut
            settle_all(state, state.now, term=k)
            if sheet is not None and state._last_cut[2] is last[2] is not None:
                lines = {aid: AgentLine(line.closing, line.inflow, line.outflow, agents[aid].stock)
                         for aid, line in sheet.agents.items()}
                figures, repeats = dict(sheet.figures), repeats + 1
            else:
                (opening, settled), opened = opened, tallies()
                if repeats:  # each replayed cut moved the last sheet's flows
                    opening = {aid: (line.closing, opening[aid][1] + repeats * line.inflow,
                                     opening[aid][2] + repeats * line.outflow)
                               for aid, line in sheet.agents.items()}
                    settled = {name: total + repeats * sheet.figures[name] for name, total in settled.items()}
                repeats = 0
                lines = {aid: AgentLine(stock, agents[aid].received - received,
                                        agents[aid].paid - paid, agents[aid].stock)
                         for aid, (stock, received, paid) in opening.items()}
                figures = {name: channels[cid].settled - settled[name] for name, cid in flow_figures}
            figures.update((name, agents[aid].stock) for name, aid in stock_figures)
            sheet = BalanceSheet(k, lines, state.cumulative_issuance,
                                 state.securities_outstanding, dict(state.rates), figures)
            yield sheet

    return sheets(tallies())


def run_record(state: NetworkState, n_terms: int,
               checkpoints: list[NetworkState] | None = None) -> Record:
    """Record `n_terms` whole terms of a fresh state, standing at time 0.

    The sheets are the first `n_terms` of `record_terms(state)`. Given a
    `checkpoints` list, a clone of the state at the opening boundary of each
    term it records is appended to it, with an empty log and every clock
    up to date: shock replays start from the first and compare their state
    with the others. The state itself is left as `record_terms` leaves it.
    """
    if n_terms < 0:
        raise ValueError("n_terms must be non-negative")
    if not math.isfinite(n_terms * state.spec.term_length):
        raise ScenarioError(f"{n_terms} terms of term_length {state.spec.term_length!r} end past "
                            "the largest float, where the clock overflows")
    terms = record_terms(state)
    sheets = []
    for _ in range(n_terms):
        if checkpoints is not None:
            _catch_up(state)
            clone = state.clone()
            clone.log = []
            checkpoints.append(clone)
        sheets.append(next(terms))
    return Record(tuple(sheets), state.spec.fingerprint(), state.spec.term_length,
                  sum(a.stock for a in state.spec.agents))


def _identity_gaps(record: Record) -> Iterator[tuple[BalanceSheet, list[int], int]]:
    """Each sheet with its agents' continuity gaps, in agent order, and its total-stock gap."""
    for sheet in record.sheets:
        lines = sheet.agents.values()
        yield (sheet, [line.closing - (line.opening + line.inflow - line.outflow) for line in lines],
               sum(line.closing for line in lines) - (record.initial_total_stock + sheet.notes_outstanding))


def _identities_hold(record: Record) -> bool:
    """Whether every identity `verify_record` checks holds, without naming the checks."""
    return not any(total or any(gaps) for _, gaps, total in _identity_gaps(record))


def verify_record(record: Record) -> IdentityReport:
    """Exact check of every sheet's accounting identities.

    Failures are reported, never raised. Each agent's closing stock must be
    its opening plus inflow minus outflow, and the total closing stock must
    equal the record's initial total plus notes outstanding (with zero
    initial stocks, the plain sum-equals-outstanding form).
    """
    checks = []
    for sheet, gaps, total in _identity_gaps(record):
        prefix = f"term{sheet.term_index}:"
        checks += [IdentityCheck(f"{prefix}continuity:{aid}", gap == 0, gap)
                   for aid, gap in zip(sheet.agents, gaps)]
        checks.append(IdentityCheck(f"{prefix}total_stock_vs_notes_outstanding", total == 0, total))
    return IdentityReport(tuple(checks))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_CSV_HEADER = "term,kind,id,opening,inflow,outflow,closing,aggregates"


def _body(sheet: BalanceSheet) -> tuple:
    """All a sheet renders but its term index, in order; equal int and Fraction bodies render alike."""
    return (list(sheet.agents.items()), sheet.notes_outstanding, sheet.securities_outstanding,
            list(sheet.rates.items()), list(sheet.figures.items()))


def _csv_rate(value: Fraction) -> str:
    text = rational_str(value)
    return text if "." in text or "/" in text else text + ".0"  # the marker a CSV reader needs


def record_to_csv(record: Record) -> str:
    lines = []
    nondefault = (record.fingerprint or record.term_length != 1.0
                  or record.initial_total_stock != 0)
    if nondefault:
        lines.append("# moneyflow-record v1")
        lines.append(f"# fingerprint={record.fingerprint}")
        lines.append(f"# term_length={record.term_length!r}")
        lines.append(f"# initial_total_stock={record.initial_total_stock}")
    lines.append(_CSV_HEADER)
    body = None
    for sheet in record.sheets:
        if (new := _body(sheet)) != body:  # a quiet term repeats the last one's rows
            body = new
            rows = [f",agent,{aid},{line.opening},{line.inflow},{line.outflow},{line.closing},"
                    for aid, line in sheet.agents.items()]
            # The order of `aggregates()`, with a name that is both a rate and a figure written twice.
            cells = [f"notes_outstanding={sheet.notes_outstanding}",
                     f"government_securities_outstanding={sheet.securities_outstanding}",
                     *(f"{k}={_csv_rate(v)}" for k, v in {**_DEFAULT_RATES, **sheet.rates}.items()),
                     *(f"{k}={v}" for k, v in sheet.figures.items())]
            rows.append(",aggregates,,,,,," + " ".join(cells))
        term = str(sheet.term_index)
        lines += [term + row for row in rows]
    return "\n".join(lines) + "\n"


def _json_block(entries: list[str], indent: str, brackets: str = "{}") -> str:
    """Rendered entries laid out as `json.dumps(indent=2)` does, closing at `indent`."""
    if not entries:
        return brackets
    inner = ",\n  " + indent
    return f"{brackets[0]}\n  {indent}{inner.join(entries)}\n{indent}{brackets[1]}"


def _sheet_json(sheet: BalanceSheet) -> str:
    """A sheet's JSON block from the entry after its term index, which the caller puts first."""
    pad = ",\n          "
    agents = [f'{_quote(aid)}: {{\n          "opening": {line.opening}{pad}"inflow": {line.inflow}'
              f'{pad}"outflow": {line.outflow}{pad}"closing": {line.closing}\n        }}'
              for aid, line in sheet.agents.items()]
    rates = [f"{_quote(k)}: {_quote(rational_str(v))}" for k, v in sheet.rates.items()]
    figures = [f"{_quote(k)}: {v}" for k, v in sheet.figures.items()]
    return ",\n      ".join([
        f'"agents": {_json_block(agents, "      ")}',
        f'"notes_outstanding": {sheet.notes_outstanding}',
        f'"government_securities_outstanding": {sheet.securities_outstanding}',
        f'"rates": {_json_block(rates, "      ")}',
        f'"figures": {_json_block(figures, "      ")}',
    ]) + "\n    }"


def record_to_json(record: Record) -> str:
    """The record as `json.dumps(doc, indent=2) + "\\n"` renders it, written directly."""
    sheets, body = [], None
    for sheet in record.sheets:
        if (new := _body(sheet)) != body:  # a quiet term repeats the last one's block
            body, rest = new, _sheet_json(sheet)
        sheets.append(f'{{\n      "term_index": {sheet.term_index},\n      {rest}')
    return _json_block([
        '"format": "moneyflow-record"',
        '"version": 1',
        f'"fingerprint": {_quote(record.fingerprint)}',
        f'"term_length": {json.dumps(record.term_length)}',
        f'"initial_total_stock": {record.initial_total_stock}',
        f'"sheets": {_json_block(sheets, "  ", "[]")}',
    ], "") + "\n"


def write_record(record: Record, path: str | Path, format: str = "csv") -> None:
    if format == "csv":
        text = record_to_csv(record)
    elif format == "json":
        text = record_to_json(record)
    else:
        raise ValueError(f"unknown record format {format!r}")
    Path(path).write_text(text, encoding="utf-8")


def _parse_value(parse, value, where: str):
    """A scenario number parser applied to a record field, failing with RecordError."""
    try:
        return parse(value, where)
    except ScenarioError as exc:
        raise RecordError(str(exc)) from exc


def _term_length(value, where: str) -> float:
    length = _parse_value(_as_float, value, where)
    if not length > 0:
        raise RecordError(f"{where}: must be positive, got {length}")
    return length


def _parse_int(text: str, where: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise RecordError(f"{where}: expected integer, got {text!r}") from exc


# The metadata keys a record may carry, each with the parser of its value, and the
# JSON type of the values that have one (`term_length` may be a number or a string).
_METADATA = {"version": lambda value, where: value, "fingerprint": lambda value, where: value,
             "term_length": _term_length, "initial_total_stock": _parse_int}
_JSON_TYPES = {"version": int, "fingerprint": str, "initial_total_stock": int}
_OUTSTANDING = ("notes_outstanding", "government_securities_outstanding")


def _record(metadata: Iterable[tuple[str, object, str, str]], sheets: Iterable[tuple]) -> Record:
    """The record of the parts either syntax reads, under every rule on what they mean
    (docs/record-format.md, "Reading"). Metadata entries are (key, value, where the key
    stands, where its value stands); sheets are (term index, agents, rate pairs, figure
    pairs with the two outstanding totals, where names stand, where values stand)."""
    fields: dict[str, object] = {}
    for key, value, where, value_where in metadata:
        if key not in _METADATA:
            raise RecordError(f"{where}: unknown key {key!r}")
        if key in fields:
            raise RecordError(f"{where}: key {key!r} repeated")
        if key == "version" and str(value) != "1":
            raise RecordError(f"{value_where}: expected 1, got {value!r}")
        fields[key] = _METADATA[key](value, value_where)
    fields.pop("version", None)
    layouts: set[tuple] = set()  # names are checked once per layout
    parsed_rates: dict = {}
    parts = None, None  # the last sheet's rate and figure pairs
    out = []
    for term, agents, rates, figures, where, value_where in sheets:
        fresh = rates is not parts[0] or figures is not parts[1]  # else the last sheet's very parts
        if fresh:
            parts, names = (rates, figures), tuple([name for name, _ in rates + figures])
        layout = (tuple(agents), names, len(rates))
        if layout not in layouts:
            for name in (*agents, *names):
                if not name or _UNRECORDABLE.search(name):
                    raise RecordError(f"term {term}: name {name!r}: a record cannot hold an empty "
                                      "name or one with a comma, whitespace or '='")
            for i, name in enumerate(names):
                if i < len(rates) and name in _OUTSTANDING:
                    raise RecordError(f"{value_where} {name}: expected integer, got {rates[i][1]!r}")
                if name in names[:i]:
                    raise RecordError(f"{where}: aggregate {name!r} repeated")
                kind, _, aid = name.partition(":")
                if kind in AGENT_FIGURES and aid in agents:
                    raise RecordError(f"{where}: aggregate {name!r} has the name of the {kind} "
                                      f"figure of agent {aid!r}")
            layouts.add(layout)
        if fresh:
            for name, value in rates:  # each rate text is parsed once; a JSON number each time
                if type(value) is not str or value not in parsed_rates:
                    parsed_rates[value] = _parse_value(as_fraction, value, f"{value_where} {name}")
            rate_values = {name: parsed_rates[value] for name, value in rates}
            try:
                ints = {name: int(value) for name, value in figures}
            except ValueError:
                ints = {name: _parse_int(value, f"{value_where} {name}") for name, value in figures}
            totals = ints.pop(_OUTSTANDING[0], 0), ints.pop(_OUTSTANDING[1], 0)
        out.append(BalanceSheet(term, agents, *totals, dict(rate_values), dict(ints)))
    return Record(tuple(out), **fields)


def _csv_sheets(lines: list[str], idx: int) -> Iterator[tuple]:
    """The parts of each term block of a CSV record, whose header is line `idx`. A row that repeats
    an earlier one after the term cell reuses its parts; only its term, block and agent id are checked."""
    if idx >= len(lines) or lines[idx] != _CSV_HEADER:
        raise RecordError(f"line {idx + 1}: expected header {_CSV_HEADER!r}")
    current_term = 0  # the term of the open block, which `agents` holds the rows of
    agents: dict[str, AgentLine] = {}
    seen: dict[str, tuple] = {}  # each distinct row text after the term cell: its kind and parts
    # A cell that int() rejects is parsed again by _parse_int, to name its line and column.
    for lineno, row in enumerate(lines[idx + 1:], idx + 1):
        if not row:
            continue
        cell, _, rest = row.partition(",")
        parsed = seen.get(rest)
        if parsed is None:
            parts = row.split(",")
            if len(parts) != 8:
                raise RecordError(f"line {lineno + 1}: expected 8 columns, found {len(parts)}")
        try:
            term = int(cell)
        except ValueError:
            term = _parse_int(cell, f"line {lineno + 1} column 1")
        if agents and term != current_term:
            raise RecordError(f"line {lineno + 1}: unexpected term {term} inside term {current_term} block")
        current_term = term
        if parsed is None and parts[1] == "agent":
            if not parts[2]:
                raise RecordError(f"line {lineno + 1} column 3: agent row needs an id")
            try:
                line = AgentLine(int(parts[3]), int(parts[4]), int(parts[5]), int(parts[6]))
            except ValueError:
                line = AgentLine(*(_parse_int(parts[c], f"line {lineno + 1} column {c + 1}")
                                   for c in range(3, 7)))
            parsed = seen[rest] = "agent", parts[2], line, parts[7]  # column 8 is checked below
        elif parsed is None and parts[1] == "aggregates":
            for c in range(2, 7):
                if parts[c]:
                    raise RecordError(f"line {lineno + 1} column {c + 1}: aggregates row holds "
                                      f"{parts[c]!r}, where it must be empty")
            rates, figures = [], []
            for chunk in parts[7].split(" ") if parts[7] else ():
                name, eq, value = chunk.partition("=")
                if not eq:
                    raise RecordError(f"line {lineno + 1} column 8: malformed aggregate {chunk!r}")
                (rates if "." in value or "/" in value else figures).append((name, value))
            parsed = seen[rest] = "aggregates", rates, figures, ""
        elif parsed is None:
            raise RecordError(f"line {lineno + 1} column 2: unknown row kind {parts[1]!r}")
        kind, first, second, cell8 = parsed
        if kind == "agent":
            if first in agents:
                raise RecordError(f"line {lineno + 1} column 3: agent {first!r} repeated in term {term}")
            if cell8:
                raise RecordError(f"line {lineno + 1} column 8: agent row holds {cell8!r}, "
                                  "where it must be empty")
            agents[first] = second
        else:
            yield term, agents, first, second, f"line {lineno + 1} column 8", f"line {lineno + 1}"
            agents = {}
    if agents:
        raise RecordError(f"term {current_term}: agent rows without a closing aggregates row")


def record_from_csv(text: str) -> Record:
    lines = text.splitlines()
    metadata = []
    for n, comment in enumerate(takewhile(lambda line: line.startswith("#"), lines), 1):
        key, eq, value = comment[1:].strip().partition("=")
        if not eq and key.startswith("moneyflow-record v"):
            key, value = "version", key[len("moneyflow-record v"):]
        metadata.append((key, value, f"line {n}", f"line {n}: {key}"))
    return _record(metadata, _csv_sheets(lines, len(metadata)))


class _RepeatedKeys(dict):
    """A JSON object naming `key` more than once, which `_expect` rejects."""


def _json_object(pairs: list[tuple[str, object]]) -> dict:
    """`json.loads` object hook that marks, rather than drops, repeated keys."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        obj = _RepeatedKeys(obj)
        obj.key = next(key for i, (key, _) in enumerate(pairs) if key in dict(pairs[:i]))
    return obj


def _expect(value, kind: type, where: str, keys: Iterable[str] | None = None):
    """`value` if it is a `kind`; an object must also name no key outside `keys`."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise RecordError(f"{where}: expected {kind.__name__}, got {value!r}")
    if isinstance(value, _RepeatedKeys):
        raise RecordError(f"{where}: key {value.key!r} repeated")
    if keys is not None:
        for key in value:
            if key not in keys:
                raise RecordError(f"{where}: unknown key {key!r}")
    return value


def _json_sheets(sheets) -> Iterator[tuple]:
    """The parts of each sheet of a JSON record."""
    for i, raw in enumerate(_expect(sheets, list, "sheets")):
        where = f"sheet {i}"
        raw = _expect(raw, dict, where, ("term_index", "agents", *_OUTSTANDING, "rates", "figures"))
        agents = {}
        for aid, entry in _expect(raw.get("agents", {}), dict, f"{where} agents").items():
            entry = _expect(entry, dict, f"{where} agent {aid!r}", AgentLine._fields)
            agents[aid] = AgentLine(*(_expect(entry.get(key), int, f"{where} agent {aid!r} {key}")
                                      for key in AgentLine._fields))
        term = _expect(raw.get("term_index"), int, f"{where} term_index")
        figures = [(key, _expect(raw.get(key, 0), int, f"{where} {label}")) for key, label in
                   (("notes_outstanding", "notes"), ("government_securities_outstanding", "securities"))]
        rates = list(_expect(raw.get("rates", {}), dict, f"{where} rates").items())
        figures += ((k, _expect(v, int, f"{where} figure {k}"))
                    for k, v in _expect(raw.get("figures", {}), dict, f"{where} figures").items())
        yield term, agents, rates, figures, where, f"{where} rate"


def record_from_json(text: str) -> Record:
    try:
        doc = json.loads(text, object_pairs_hook=_json_object)
    except json.JSONDecodeError as exc:
        raise RecordError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "moneyflow-record":
        raise RecordError("not a moneyflow record document")
    metadata = [(key, _expect(value, _JSON_TYPES[key], key) if key in _JSON_TYPES else value,
                 "record", key) for key, value in _expect(doc, dict, "record").items()
                if key not in ("format", "sheets")]
    return _record(metadata, _json_sheets(doc.get("sheets", [])))


def read_record(path: str | Path, *, on_identity_violation: str = "reject") -> Record:
    """Parse a CSV or JSON record file, validating invariants.

    `on_identity_violation`: "reject" raises, "skip" loads without checking.
    """
    text = _read_utf8(path, RecordError)
    if text.lstrip().startswith("{"):
        try:
            record = record_from_json(text)
        except RecursionError:
            raise RecordError(f"{path}: JSON nested too deeply to read") from None
    else:
        record = record_from_csv(text)
    if on_identity_violation != "skip" and not _identities_hold(record):
        raise RecordError(f"{path}: {verify_record(record).summary()}")
    return record
