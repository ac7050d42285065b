"""Command-line entry point.

Subcommands: simulate, record, verify, fit, anticipate. Exit code 0 on
success; 1 on one of two domain failures only, accounting identities
violated or `fit --strict` unconverged; 2 on bad input: usage errors, a
scenario or record that is malformed or that the simulation rejects (a
`ScenarioError` or `RecordError`), and files that cannot be read or written
(a directory, a file that is not UTF-8). Any other exception is a bug and
escapes with its traceback. Identical argv plus identical input files
produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .anticipation import DEFAULT_DIMS, AnticipateConfig, ReplayConfig, SamplerConfig, anticipate
from .engine import event_trace
from .network import build_network, conservation_holds
from .recorder import RecordError, _identities_hold, read_record, run_record, verify_record, write_record
from .retrieval import FitConfig, fit
from .scenario import BUILTIN_SCENARIOS, ScenarioError, ScenarioSpec, load_scenario

SCENARIO_DIR_ENV = "MONEYFLOW_SCENARIO_DIR"


def resolve_scenario(name_or_path: str) -> ScenarioSpec:
    path = Path(name_or_path)
    if path.is_file():
        return load_scenario(path)
    if name_or_path in BUILTIN_SCENARIOS:
        return BUILTIN_SCENARIOS[name_or_path]()
    env_dir = os.environ.get(SCENARIO_DIR_ENV)
    if env_dir:
        for candidate in (Path(env_dir) / name_or_path, Path(env_dir) / f"{name_or_path}.json"):
            if candidate.is_file():
                return load_scenario(candidate)
    if path.exists():  # a directory, say: reading it tells why it is no scenario
        return load_scenario(path)
    raise ScenarioError(
        f"scenario {name_or_path!r} is neither a file, a built-in "
        f"({', '.join(sorted(BUILTIN_SCENARIOS))}), nor found under ${SCENARIO_DIR_ENV}"
    )


def _header(stream, command: str, **settings) -> None:
    stream.write(f"# moneyflow {command}\n")
    rendered = " ".join(f"{k}={v}" for k, v in settings.items())
    stream.write(f"# {rendered}\n")


def _effective_spec(args) -> ScenarioSpec:
    spec = resolve_scenario(args.scenario)
    if args.seed is not None:
        spec = spec.with_seed(args.seed)
    return spec


def cmd_simulate(args, out) -> int:
    spec = _effective_spec(args)
    _header(out, "simulate", scenario=spec.name, seed=spec.seed, terms=args.terms)
    state = build_network(spec)
    record = run_record(state, args.terms)
    if args.trace:
        Path(args.trace).write_text(event_trace(state.log), encoding="utf-8")
    if args.record:
        write_record(record, args.record, args.format)
    out.write(f"events={len(state.log)}\n")
    out.write(f"notes_outstanding={state.cumulative_issuance}\n")
    out.write(f"total_stock={state.total_stock()}\n")
    conserved = conservation_holds(state)
    out.write(f"conservation={'ok' if conserved else 'VIOLATED'}\n")
    identities = _identities_hold(record)
    out.write(f"identities={'ok' if identities else 'VIOLATED'}\n")
    return 0 if conserved and identities else 1


def cmd_record(args, out) -> int:
    spec = _effective_spec(args)
    _header(out, "record", scenario=spec.name, seed=spec.seed, terms=args.terms,
            out=args.out, format=args.format)
    state = build_network(spec)
    record = run_record(state, args.terms)
    write_record(record, args.out, args.format)
    out.write(f"terms={len(record.sheets)} fingerprint={record.fingerprint}\n")
    return 0


def cmd_verify(args, out) -> int:
    _header(out, "verify", record=args.record)
    record = read_record(args.record, on_identity_violation="skip")
    report = verify_record(record)
    for check in report.checks:
        status = "ok" if check.passed else f"FAIL off_by={check.discrepancy}"
        out.write(f"{check.name}: {status}\n")
    out.write(f"identities={'ok' if report.ok else 'VIOLATED'}\n")
    return 0 if report.ok else 1


def cmd_fit(args, out) -> int:
    spec = _effective_spec(args)
    config = FitConfig(
        budget=args.budget,
        tolerance=args.tol,
        seed=spec.seed,
        starts=args.starts,
        prefix_terms=args.prefix,
    )
    _header(out, "fit", scenario=spec.name, seed=spec.seed, budget=args.budget,
            tol=args.tol, prefix=args.prefix, starts=args.starts)
    target = read_record(args.target, on_identity_violation="skip")
    if not _identities_hold(target):
        print(f"moneyflow: warning: {args.target}: {verify_record(target).summary()}", file=sys.stderr)
    result = fit(target, spec, config)
    payload = json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(payload, encoding="utf-8")
    out.write(payload)
    if args.strict and not result.converged:
        return 1
    return 0


def cmd_anticipate(args, out) -> int:
    spec = _effective_spec(args)
    dims = tuple(args.dims.split(",")) if args.dims else DEFAULT_DIMS
    config = AnticipateConfig(
        candidates=args.candidates,
        horizon_terms=args.horizon,
        dims=dims,
        sampler=SamplerConfig(seed=spec.seed, bound=args.bound),
        replay=ReplayConfig(replays=args.replays, seed=spec.seed, shock_scale=args.shock_scale),
    )
    _header(out, "anticipate", scenario=spec.name, seed=spec.seed, candidates=args.candidates,
            replays=args.replays, horizon=args.horizon, dims=",".join(dims))
    report, candidates = anticipate(spec, config)
    payload = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(payload, encoding="utf-8")
    out.write(payload)
    moved = [sum(map(bool, s.divergences)) for s in report.scores]
    print("moneyflow: replays that moved a dim (nonzero divergence), per candidate: "
          + ", ".join(f"{s.candidate_id}: {m}/{len(s.divergences)}"
                      for s, m in zip(report.scores, moved)), file=sys.stderr)
    if not any(moved):
        # A shock is a value of candidate 0's pool times the shock scale,
        # rounded, so an empty pool or a small scale makes every shock 0. The
        # candidates carry no offsets, and a nonzero shock moves a flow only
        # by refreshing a snapshot that offsets left stale.
        pool = candidates[0].imbalance_pool
        if not pool:
            cause = ("the shock pool is empty (the reference candidate's unshocked run never "
                     "observed a nonzero deficit), so every replay shock was 0 and ")
        elif all(abs(p * args.shock_scale) <= 0.5 for p in pool):  # where round() gives 0
            cause = (f"--shock-scale {args.shock_scale!r} rounds every value of the shock pool "
                     "to 0, so every replay shock was 0 and ")
        else:
            cause = ("no candidate carries offsets, so no snapshot is stale, no replay shock "
                     "can move a dim that is not a stock figure, and ")
        print(f"moneyflow: warning: {cause}every shock replay of every candidate diverged by 0.0, "
              "so the scores cannot tell the candidates apart and the selection is the tie-break",
              file=sys.stderr)
    elif len(report.scores) > 1 and len({s.divergences for s in report.scores}) == 1:
        # Every candidate faces the same shocks, so a dim that moves by the
        # shocks alone, such as a stock figure, diverges the same in each.
        stock_names = {f.name for f in spec.figures if f.stock is not None}
        cause = ("every dim is a stock figure, which moves by the shocks alone, and every "
                 "candidate faces the same shocks: " if set(dims) <= stock_names else "")
        print(f"moneyflow: warning: {cause}every candidate's shock replays diverged by the same amounts "
              f"(mean {report.scores[0].mean_divergence!r}), so the scores cannot tell the "
              "candidates apart and the selection is only the tie-break", file=sys.stderr)
    if args.trajectory_out:
        chosen = candidates[report.selected]
        lines = ["term," + ",".join(dims)]
        for term, point in enumerate(chosen.trajectory):
            lines.append(f"{term}," + ",".join(repr(v) for v in point))
        Path(args.trajectory_out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


def _count(text: str) -> int:
    """Argument type for a non-negative integer count."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _finite(text: str) -> float:
    """Argument type for a finite float."""
    try:
        value = float(text)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")


def _positive(text: str) -> int:
    """Argument type for a count that must be at least 1."""
    if not (text.isascii() and text.isdigit()) or int(text) == 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


_SUBCOMMANDS = ("simulate", "record", "verify", "fit", "anticipate")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser, with every subcommand's arguments or only `command`'s.

    Every subcommand is registered with its help line either way, so the
    top-level help and usage and an invalid-choice error read the same; a
    subcommand's own help and usage errors need only its own arguments.
    """
    parser = argparse.ArgumentParser(
        prog="moneyflow",
        description="Deterministic monetary flow network simulator, record fitter, and trajectory anticipator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common_scenario = argparse.ArgumentParser(add_help=False)
    common_scenario.add_argument("--scenario", required=True,
                                 help="scenario file, built-in name, or name under $" + SCENARIO_DIR_ENV)
    common_scenario.add_argument("--seed", type=int, default=None,
                                 help="override the scenario seed")

    def subcommand(name: str, help_text: str, scenario: bool = True):
        """The subcommand's parser, or None once registered bare for another
        `command`: a bare parser never parses, so it needs no -h either."""
        if command is not None and name != command:
            sub.add_parser(name, help=help_text, add_help=False)
            return None
        return sub.add_parser(name, parents=[common_scenario] if scenario else [], help=help_text)

    if p := subcommand("simulate", "run a scenario and write its event trace"):
        p.add_argument("--terms", type=_count, default=10)
        p.add_argument("--trace", help="write the event log as JSON lines")
        p.add_argument("--record", help="also write the compiled record")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.set_defaults(func=cmd_simulate)

    if p := subcommand("record", "run a scenario and write its compiled record"):
        p.add_argument("--terms", type=_count, default=10)
        p.add_argument("--out", required=True)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.set_defaults(func=cmd_record)

    if p := subcommand("verify", "check the accounting identities of a record file", False):
        p.add_argument("--record", required=True)
        p.set_defaults(func=cmd_verify)

    if p := subcommand("fit", "retrace a target record from hidden initial offsets"):
        p.add_argument("--target", required=True)
        p.add_argument("--budget", type=_positive, default=10_000)
        p.add_argument("--tol", type=_finite, default=1e-3)
        p.add_argument("--prefix", type=_positive, default=None,
                       help="fit only the first K terms of the target")
        p.add_argument("--starts", type=_positive, default=4)
        p.add_argument("--out", help="write the fit result JSON to a file")
        p.add_argument("--strict", action="store_true",
                       help="exit 1 when the fit does not converge")
        p.set_defaults(func=cmd_fit)

    if p := subcommand("anticipate", "score candidate futures by shock-replay robustness"):
        p.add_argument("--candidates", type=_positive, default=5)
        p.add_argument("--replays", type=_positive, default=32)
        p.add_argument("--horizon", type=_positive, default=8, help="horizon in terms")
        p.add_argument("--dims", help="comma-separated aggregate names for the phase vector")
        p.add_argument("--bound", type=_finite, default=0.2,
                       help="multiplier sampling bound, in [0, 1]")
        p.add_argument("--shock-scale", type=_finite, default=1.0)
        p.add_argument("--out", help="write the robustness report JSON to a file")
        p.add_argument("--trajectory-out", help="write the selected trajectory as CSV")
        p.set_defaults(func=cmd_anticipate)
    return parser


def run_cli(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in _SUBCOMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args, out)
    except (ScenarioError, RecordError, OSError) as exc:
        # An unreadable path (a directory, no permission) is bad input, like
        # a malformed file; a file that is not UTF-8 reads as malformed.
        print(f"moneyflow: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
