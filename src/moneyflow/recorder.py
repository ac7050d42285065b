"""Term-end balance sheets: the globally synchronized view of the network.

The recorder plays the part of the monetary authority. At every term boundary
it forces a settlement of all channels at once (a global cut the dynamics
themselves never perform), then compiles per-agent flow totals and aggregate
figures into a balance sheet. The forced cut is flagged `observer` in the
event log: it flushes accruals and refreshes snapshots, so the recorder is
not a perfectly passive observer, and downstream consumers can tell its
settlements apart from organic ones.

Sheets satisfy the accounting identities exactly, by construction;
`verify_identities` re-checks them and reports any discrepancy rather than
raising. Records serialize to CSV and JSON with a documented, bit-exact
encoding; see docs/record-format.md.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Mapping

from .engine import run, settle_all
from .network import NetworkState
from .scenario import ScenarioError, _as_float, _read_utf8, as_fraction, rational_str


class RecordError(ValueError):
    """Raised for malformed record files or violated record invariants."""


@dataclass(frozen=True)
class AgentLine:
    opening: int
    inflow: int
    outflow: int
    closing: int


@dataclass(frozen=True)
class BalanceSheet:
    term_index: int
    agents: Mapping[str, AgentLine]
    notes_outstanding: int
    securities_outstanding: int
    rates: Mapping[str, Fraction]
    figures: Mapping[str, int]

    def aggregates(self) -> dict[str, int | Fraction]:
        out: dict[str, int | Fraction] = {
            "notes_outstanding": self.notes_outstanding,
            "government_securities_outstanding": self.securities_outstanding,
            "discount_rate": self.rates.get("discount_rate", Fraction(0)),
            "securities_interest_rate": self.rates.get("securities_interest_rate", Fraction(0)),
        }
        for name, value in self.rates.items():
            if name not in out:
                out[name] = value
        out.update(self.figures)
        return out


@dataclass(frozen=True)
class Record:
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


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    passed: bool
    discrepancy: int


@dataclass(frozen=True)
class IdentityReport:
    checks: tuple[IdentityCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[IdentityCheck]:
        return [c for c in self.checks if not c.passed]


class Recorder:
    """Term-by-term sheet compiler over one state's event log.

    The observer cut flagged `term=k` closes term k, so each sheet is summed
    from the events logged after the previous cut, through its own. The
    recorder carries the stocks, rates and outstanding totals as of the last
    compiled cut and the log position just past it. Segmenting the log at the
    cuts, rather than by event time, books every event into the term the
    engine processed it in, at any term length.

    A recorder that starts at `term` > 0 resumes a state standing at that
    term's opening boundary, such as a checkpoint `run_record` took: the
    carried figures are read off the state, whose money moved only through
    logged events, and compiling starts at the end of its log.
    """

    def __init__(self, state: NetworkState, term: int = 0):
        self.state = state
        self.term = term  # index of the next sheet to compile
        spec = state.spec
        self._agent_ids = [a.id for a in spec.agents]
        channel_figures = {f.channel: f.name for f in spec.figures if f.channel is not None}
        self._flow_names = list(channel_figures.values())
        self._stock_figures = [(f.name, f.stock) for f in spec.figures if f.stock is not None]
        self._routes = {cid: (ch.source, ch.sink, channel_figures.get(cid))
                        for cid, ch in state.channels.items()}
        if term == 0:
            self._position = 0
            self._stocks = dict(state.initial_stocks)
            self._rates = dict(state.initial_rates)
            self._notes = 0
            self._securities = 0
        elif state.now == term * spec.term_length:
            self._position = len(state.log)
            self._stocks = {aid: state.agents[aid].stock for aid in self._agent_ids}
            self._rates = dict(state.rates)
            self._notes = state.cumulative_issuance
            self._securities = state.securities_outstanding
        else:
            raise ValueError(f"cannot resume term {term}: the state is at {state.now}, "
                             f"not at the term's opening boundary")

    def record_term(self) -> BalanceSheet:
        """Run the next term, take its observer cut and compile its sheet."""
        state = self.state
        boundary = (self.term + 1) * state.spec.term_length
        run(state, boundary - state.now)
        settle_all(state, boundary, term=self.term)
        return self.compile_term()

    def compile_term(self) -> BalanceSheet:
        """Sheet of the next term, from the log through its observer cut.

        Raises RecordError when the log holds no cut for the term, as after a
        bare `run` that took none; the recorder is then left as it was.
        """
        term, log, routes = self.term, self.state.log, self._routes
        opening = self._stocks
        stocks, rates = dict(opening), dict(self._rates)
        notes, securities = self._notes, self._securities
        inflow = dict.fromkeys(self._agent_ids, 0)
        outflow = dict.fromkeys(self._agent_ids, 0)
        flows = dict.fromkeys(self._flow_names, 0)
        for position in range(self._position, len(log)):
            ev = log[position]
            kind, payload = ev.kind, ev.payload
            if kind == "Settlement":
                for cid, amount in payload["amounts"]:
                    source, sink, figure = routes[cid]
                    stocks[source] -= amount
                    stocks[sink] += amount
                    outflow[source] += amount
                    inflow[sink] += amount
                    if figure is not None:
                        flows[figure] += amount
                cut = payload.get("term") if payload["observer"] else None
                if cut is None:
                    continue
                if cut != term:
                    raise RecordError(f"log position {position}: cut of term {cut} "
                                      f"where term {term} was expected")
                self.term += 1
                self._position = position + 1
                self._stocks, self._rates = stocks, rates
                self._notes, self._securities = notes, securities
                figures = dict(flows)
                for name, agent_id in self._stock_figures:
                    figures[name] = stocks[agent_id]
                return BalanceSheet(
                    term_index=term,
                    agents={aid: AgentLine(opening[aid], inflow[aid], outflow[aid], stocks[aid])
                            for aid in self._agent_ids},
                    notes_outstanding=notes,
                    securities_outstanding=securities,
                    rates=dict(rates),
                    figures=figures,
                )
            elif kind == "Shock":
                # Shocks redistribute stocks; they are not flow on the channel.
                amount = payload["amount"]
                stocks[payload["source"]] -= amount
                stocks[payload["sink"]] += amount
                outflow[payload["source"]] += amount
                inflow[payload["sink"]] += amount
            elif kind == "Issue":
                amount = payload["amount"]
                if payload.get("instrument") == "securities":
                    securities += amount
                else:
                    stocks[payload["agent"]] += amount
                    notes += amount
                    if amount >= 0:
                        inflow[payload["agent"]] += amount
                    else:
                        outflow[payload["agent"]] += -amount
            elif kind == "Policy":
                if payload["action"] == "set_rate":
                    rates[payload["target"]] = payload["value"]
        raise RecordError(f"the log holds no observer cut for term {term}")


def run_record(state: NetworkState, n_terms: int,
               checkpoints: list[NetworkState] | None = None) -> Record:
    """Advance the state by whole terms, forcing the boundary cut each term.

    The forced settlement is flagged `observer` in the log so that organic
    settlements remain distinguishable from recorder-induced ones. The record
    holds every term from 0: terms already cut in the log are compiled again
    from it, and a state advanced without cuts raises RecordError.

    Given a `checkpoints` list, a clone of the state at the opening boundary
    of each term it records is appended to it, with an empty log; a
    `Recorder(checkpoint, term)` continues the run from there.
    """
    if n_terms < 0:
        raise ValueError("n_terms must be non-negative")
    term_length = state.spec.term_length
    first = int(round(state.now / term_length))
    if abs(state.now - first * term_length) > 1e-9:
        raise ValueError(f"run_record must start at a term boundary, state is at {state.now}")
    recorder = Recorder(state)
    sheets = [recorder.compile_term() for _ in range(first)]
    for _ in range(n_terms):
        if checkpoints is not None:
            checkpoint = state.clone()
            checkpoint.log = []
            checkpoints.append(checkpoint)
        sheets.append(recorder.record_term())
    return Record(
        sheets=tuple(sheets),
        fingerprint=state.spec.fingerprint(),
        term_length=term_length,
        initial_total_stock=sum(state.initial_stocks.values()),
    )


def verify_identities(sheet: BalanceSheet, initial_total_stock: int = 0) -> IdentityReport:
    """Exact check of the sheet's accounting identities.

    Failures are reported, never raised. The stock-versus-notes identity
    compares total closing stock against initial total plus notes outstanding
    (with zero initial stocks this is the plain sum-equals-outstanding form).
    """
    return IdentityReport(tuple(_identity_checks(sheet, initial_total_stock, "")))


def _identity_checks(sheet: BalanceSheet, initial_total_stock: int, prefix: str) -> list[IdentityCheck]:
    checks = []
    for aid, line in sheet.agents.items():
        gap = line.closing - (line.opening + line.inflow - line.outflow)
        checks.append(IdentityCheck(f"{prefix}continuity:{aid}", gap == 0, gap))
    total_closing = sum(line.closing for line in sheet.agents.values())
    gap = total_closing - (initial_total_stock + sheet.notes_outstanding)
    checks.append(IdentityCheck(f"{prefix}total_stock_vs_notes_outstanding", gap == 0, gap))
    return checks


def verify_record(record: Record) -> IdentityReport:
    checks: list[IdentityCheck] = []
    for sheet in record.sheets:
        checks += _identity_checks(sheet, record.initial_total_stock, f"term{sheet.term_index}:")
    return IdentityReport(tuple(checks))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_CSV_HEADER = "term,kind,id,opening,inflow,outflow,closing,aggregates"


def _aggregate_items(sheet: BalanceSheet) -> list[tuple[str, str]]:
    items = [
        ("notes_outstanding", str(sheet.notes_outstanding)),
        ("government_securities_outstanding", str(sheet.securities_outstanding)),
    ]
    rate_names = ["discount_rate", "securities_interest_rate"]
    rate_names += sorted(k for k in sheet.rates if k not in rate_names)
    for name in rate_names:
        text = rational_str(sheet.rates.get(name, Fraction(0)))
        if "." not in text and "/" not in text:
            text += ".0"  # rates always carry a fractional marker in CSV
        items.append((name, text))
    items.extend((name, str(value)) for name, value in sheet.figures.items())
    return items


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
    for sheet in record.sheets:
        for aid, line in sheet.agents.items():
            lines.append(f"{sheet.term_index},agent,{aid},{line.opening},{line.inflow},"
                         f"{line.outflow},{line.closing},")
        pairs = " ".join(f"{k}={v}" for k, v in _aggregate_items(sheet))
        lines.append(f"{sheet.term_index},aggregates,,,,,,{pairs}")
    return "\n".join(lines) + "\n"


def _json_block(entries: list[str], indent: str, brackets: str = "{}") -> str:
    """Rendered entries laid out as `json.dumps(indent=2)` does, closing at `indent`."""
    if not entries:
        return brackets
    inner = ",\n  " + indent
    return f"{brackets[0]}\n  {indent}{inner.join(entries)}\n{indent}{brackets[1]}"


def _sheet_json(sheet: BalanceSheet) -> str:
    pad = ",\n          "
    agents = [f'{_quote(aid)}: {{\n          "opening": {line.opening}{pad}"inflow": {line.inflow}'
              f'{pad}"outflow": {line.outflow}{pad}"closing": {line.closing}\n        }}'
              for aid, line in sheet.agents.items()]
    rates = [f"{_quote(k)}: {_quote(rational_str(v))}" for k, v in sheet.rates.items()]
    figures = [f"{_quote(k)}: {v}" for k, v in sheet.figures.items()]
    return _json_block([
        f'"term_index": {sheet.term_index}',
        f'"agents": {_json_block(agents, "      ")}',
        f'"notes_outstanding": {sheet.notes_outstanding}',
        f'"government_securities_outstanding": {sheet.securities_outstanding}',
        f'"rates": {_json_block(rates, "      ")}',
        f'"figures": {_json_block(figures, "      ")}',
    ], "    ")


def record_to_json(record: Record) -> str:
    """The record as `json.dumps(doc, indent=2) + "\\n"` renders it, written directly."""
    return _json_block([
        '"format": "moneyflow-record"',
        '"version": 1',
        f'"fingerprint": {_quote(record.fingerprint)}',
        f'"term_length": {json.dumps(record.term_length)}',
        f'"initial_total_stock": {record.initial_total_stock}',
        f'"sheets": {_json_block([_sheet_json(sheet) for sheet in record.sheets], "  ", "[]")}',
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


def _parse_int(text: str, where: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise RecordError(f"{where}: expected integer, got {text!r}") from exc


def _sheet_from_parts(term: int, agents: dict[str, AgentLine], aggregates: list[tuple[str, str]],
                      where: str, parsed_rates: dict[str, Fraction]) -> BalanceSheet:
    notes = securities = 0
    rates: dict[str, Fraction] = {}
    figures: dict[str, int] = {}
    for name, text in aggregates:
        if name == "notes_outstanding":
            notes = _parse_int(text, f"{where} {name}")
        elif name == "government_securities_outstanding":
            securities = _parse_int(text, f"{where} {name}")
        elif "." in text or "/" in text:
            rate = parsed_rates.get(text)
            if rate is None:
                rate = parsed_rates[text] = _parse_value(as_fraction, text, f"{where} {name}")
            rates[name] = rate
        else:
            figures[name] = _parse_int(text, f"{where} {name}")
    return BalanceSheet(term, agents, notes, securities, rates, figures)


def record_from_csv(text: str) -> Record:
    fingerprint = ""
    term_length = 1.0
    initial_total = 0
    lines = text.splitlines()
    idx = 0
    while idx < len(lines) and lines[idx].startswith("#"):
        comment = lines[idx][1:].strip()
        if "=" in comment:
            key, _, value = comment.partition("=")
            if key == "fingerprint":
                fingerprint = value
            elif key == "term_length":
                term_length = _parse_value(_as_float, value, f"line {idx + 1}: term_length")
            elif key == "initial_total_stock":
                initial_total = _parse_int(value, f"line {idx + 1}: initial_total_stock")
        idx += 1
    if idx >= len(lines) or lines[idx] != _CSV_HEADER:
        raise RecordError(f"line {idx + 1}: expected header {_CSV_HEADER!r}")
    idx += 1

    sheets: list[BalanceSheet] = []
    current_term: int | None = None
    agents: dict[str, AgentLine] = {}
    parsed_rates: dict[str, Fraction] = {}
    # parsed_rates: each rate string of the file is parsed once. A cell that
    # int() rejects is parsed again by _parse_int, to name its line and column.
    for lineno in range(idx, len(lines)):
        row = lines[lineno]
        if not row:
            continue
        parts = row.split(",")
        if len(parts) != 8:
            raise RecordError(f"line {lineno + 1}: expected 8 columns, found {len(parts)}")
        try:
            term = int(parts[0])
        except ValueError:
            term = _parse_int(parts[0], f"line {lineno + 1} column 1")
        kind = parts[1]
        if current_term is None:
            current_term = term
        if term != current_term:
            raise RecordError(f"line {lineno + 1}: unexpected term {term} inside term {current_term} block")
        if kind == "agent":
            aid = parts[2]
            if not aid:
                raise RecordError(f"line {lineno + 1} column 3: agent row needs an id")
            try:
                line = AgentLine(int(parts[3]), int(parts[4]), int(parts[5]), int(parts[6]))
            except ValueError:
                line = AgentLine(*(_parse_int(parts[c], f"line {lineno + 1} column {c + 1}")
                                   for c in range(3, 7)))
            agents[aid] = line
        elif kind == "aggregates":
            pairs = []
            cell = parts[7]
            if cell:
                for chunk in cell.split(" "):
                    name, eq, value = chunk.partition("=")
                    if not eq:
                        raise RecordError(f"line {lineno + 1} column 8: malformed aggregate {chunk!r}")
                    pairs.append((name, value))
            sheets.append(_sheet_from_parts(term, agents, pairs, f"line {lineno + 1}", parsed_rates))
            agents = {}
            current_term = None
        else:
            raise RecordError(f"line {lineno + 1} column 2: unknown row kind {kind!r}")
    if current_term is not None:
        raise RecordError(f"term {current_term}: agent rows without a closing aggregates row")
    return Record(tuple(sheets), fingerprint, term_length, initial_total)


def _expect(value, kind: type, where: str):
    if isinstance(value, bool) or not isinstance(value, kind):
        raise RecordError(f"{where}: expected {kind.__name__}, got {value!r}")
    return value


def record_from_json(text: str) -> Record:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RecordError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "moneyflow-record":
        raise RecordError("not a moneyflow record document")
    sheets = []
    for i, raw in enumerate(_expect(doc.get("sheets", []), list, "sheets")):
        where = f"sheet {i}"
        raw = _expect(raw, dict, where)
        agents = {}
        for aid, entry in _expect(raw.get("agents", {}), dict, f"{where} agents").items():
            entry = _expect(entry, dict, f"{where} agent {aid!r}")
            agents[aid] = AgentLine(*(_expect(entry.get(key), int, f"{where} agent {aid!r} {key}")
                                      for key in ("opening", "inflow", "outflow", "closing")))
        sheets.append(BalanceSheet(
            term_index=_expect(raw.get("term_index"), int, f"{where} term_index"),
            agents=agents,
            notes_outstanding=_expect(raw.get("notes_outstanding", 0), int, f"{where} notes"),
            securities_outstanding=_expect(raw.get("government_securities_outstanding", 0), int,
                                           f"{where} securities"),
            rates={k: _parse_value(as_fraction, v, f"{where} rate {k}")
                   for k, v in _expect(raw.get("rates", {}), dict, f"{where} rates").items()},
            figures={k: _expect(v, int, f"{where} figure {k}")
                     for k, v in _expect(raw.get("figures", {}), dict, f"{where} figures").items()},
        ))
    return Record(
        sheets=tuple(sheets),
        fingerprint=_expect(doc.get("fingerprint", ""), str, "fingerprint"),
        term_length=_parse_value(_as_float, doc.get("term_length", 1.0), "term_length"),
        initial_total_stock=_expect(doc.get("initial_total_stock", 0), int, "initial_total_stock"),
    )


def read_record(path: str | Path, *, on_identity_violation: str = "reject") -> Record:
    """Parse a CSV or JSON record file, validating invariants.

    `on_identity_violation`: "reject" raises, "warn" emits a warning, "skip"
    loads without checking.
    """
    text = _read_utf8(path, RecordError)
    if text.lstrip().startswith("{"):
        record = record_from_json(text)
    else:
        record = record_from_csv(text)
    if on_identity_violation != "skip":
        report = verify_record(record)
        if not report.ok:
            failures = ", ".join(f"{c.name} (off by {c.discrepancy})" for c in report.failures())
            message = f"{path}: accounting identities violated: {failures}"
            if on_identity_violation == "reject":
                raise RecordError(message)
            warnings.warn(message)
    return record
