"""Acceptance suite: desk-scale property checks for the full pipeline.

Each test prints one PASS/FAIL line (visible with `pytest -s` or in captured
output). Tolerances and budgets are pinned here, not configurable.
"""

import hashlib
import io
import json
import time
from fractions import Fraction

import pytest

from moneyflow import (
    Assignment,
    FitConfig,
    ReplayConfig,
    build_network,
    equilibrate,
    fit,
    notes_outstanding,
    observed_deficit,
    retrace,
    run,
    run_record,
    score_candidates,
    simulate_candidate,
    three_agent_cycle,
    two_agent_kernel,
    update_agent,
    verify_record,
)
from moneyflow.cli import run_cli
from moneyflow.retrieval import apply_assignment
from moneyflow.scenario import PolicyAction, national_5

from conftest import true_imbalance

from dataclasses import replace


def report(index: int, name: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {index} {name}: {'PASS' if passed else 'FAIL'} ({detail})")


def test_1_conservation_at_scale():
    spec = national_5().with_seed(42)
    state = build_network(spec)
    initial_total = sum(state.initial_stocks.values())
    # Processed events: every logged event that is not an agent wake, plus
    # every wake, logged or not (wakes that change nothing are not logged).
    other_events = 0

    def processed():
        return other_events + sum(a.event_count for a in state.agents.values())

    started = time.perf_counter()
    while processed() < 100_000:
        _, events = run(state, 50.0)
        other_events += sum(1 for ev in events if ev.kind != "AgentUpdate")
    elapsed = time.perf_counter() - started
    exact = state.total_stock() - notes_outstanding(state) == initial_total
    ok = exact and elapsed < 5.0
    report(1, "conservation", ok,
           f"{processed()} events to t={state.now:g} in {elapsed:.2f}s, exact={exact}")
    assert exact
    assert elapsed < 5.0


def test_2_accounting_identities_across_seeds():
    spec = national_5()
    failures = 0
    terms = 0
    for seed in range(100):
        record = run_record(build_network(spec.with_seed(seed)), 6)
        result = verify_record(record)
        terms += len(record.sheets)
        if not result.ok:
            failures += 1
    report(2, "accounting-identities", failures == 0,
           f"100 runs x 6 terms ({terms} sheets), failures={failures}")
    assert failures == 0


def test_3_tax_cascade_sign_pattern():
    spec = national_5()
    shocked_spec = spec.with_extra_policy([
        PolicyAction(10.0, "set_multiplier", "tax_hh", Fraction(3, 10)),
        PolicyAction(10.0, "set_multiplier", "tax_corp", Fraction(3, 10)),
    ])
    hits = 0
    transient = 0
    for seed in range(100):
        base = run_record(build_network(spec.with_seed(seed)), 14)
        alt = run_record(build_network(shocked_spec.with_seed(seed)), 14)
        gov_base = base.sheets[10].agents["GOV"]
        gov_alt = alt.sheets[10].agents["GOV"]
        if (gov_alt.inflow - gov_alt.outflow) > (gov_base.inflow - gov_base.outflow):
            transient += 1
        for t in (11, 12, 13):
            b, a = base.sheets[t].figures, alt.sheets[t].figures
            if (a["consumption_flow"] < b["consumption_flow"]
                    and a["investment_flow"] < b["investment_flow"]
                    and a["bond_flow"] > b["bond_flow"]):
                hits += 1
                break
    ok = hits >= 95
    report(3, "tax-cascade", ok,
           f"sign pattern in {hits}/100 seeds, transient gov net inflow up in {transient}/100")
    assert ok


def test_4_two_agent_kernel_exact():
    state = build_network(two_agent_kernel(10, 10, gain=Fraction(1)))
    apply_assignment(state, Assignment(offsets={"A": 2, "B": -2}))
    deficit = observed_deficit(state, "A")
    channels = [state.channels[cid] for cid in state.adjustable_outgoing["A"]]
    deltas, residual = equilibrate(channels, deficit, Fraction(1))
    # The correction closes the observed gap exactly: residual zero and the
    # adjusted view re-balances.
    assert deltas == {"ab": -2}
    assert residual == 0
    update_agent(state, "A", 0.05)
    post_view_deficit = deficit + sum(deltas.values())
    partner = true_imbalance(state, "B")
    ok = post_view_deficit == 0 and partner != 0
    report(4, "two-agent-kernel", ok,
           f"observed imbalance after update = {post_view_deficit}, partner true imbalance = {partner}")
    assert post_view_deficit == 0
    assert partner == 2


# SHA-256 over the 20 FitResult.to_dict() documents of acceptance 5, each
# rendered as sorted-key JSON: fits must stay equal field for field.
FIT_RESULTS_PIN = "15ad9a660f8a49e304c855774c54d1dbe71e2de3dbeacf3d9ef8d314a940ca9d"


def test_5_retrieval_self_consistency():
    spec = three_agent_cycle()
    hidden = Assignment(offsets={"A": 7, "B": -4, "C": 2})
    started = time.perf_counter()
    converged = 0
    evaluations = []
    digest = hashlib.sha256()
    for seed in range(20):
        seeded = spec.with_seed(100 + seed)
        target = retrace(hidden, seeded, 4)
        result = fit(target, seeded,
                     FitConfig(budget=10_000, tolerance=1e-3, seed=100 + seed, starts=8))
        converged += result.converged
        evaluations.append(result.evaluations)
        digest.update(json.dumps(result.to_dict(), sort_keys=True).encode("utf-8"))
    elapsed = time.perf_counter() - started
    ok = converged >= 18 and elapsed < 60.0
    report(5, "retrieval-self-consistency", ok,
           f"{converged}/20 seeds at rms<=1e-3, max evals {max(evaluations)}, {elapsed:.1f}s")
    assert converged >= 18
    assert elapsed < 60.0
    assert digest.hexdigest() == FIT_RESULTS_PIN


OSCILLATORY_GAINS = (Fraction(2), Fraction(5, 2), Fraction(3), Fraction(7, 2))


def test_6_anticipation_prefers_stable_baseline():
    # First verify by direct iteration that the oscillatory regime is real:
    # at gain 3 the interacting pair's observed gap alternates and grows, at
    # gain 1/2 it dies out.
    for gain, growing in ((Fraction(3), True), (Fraction(1, 2), False)):
        state = build_network(two_agent_kernel(400, 396, gain=gain))
        gaps = []
        t = 0.0
        for i in range(6):
            actor = "A" if i % 2 == 0 else "B"
            t += 0.1
            gaps.append(abs(observed_deficit(state, actor)))
            update_agent(state, actor, t)
        nonzero = [g for g in gaps if g != 0]
        if growing:
            assert all(b >= a for a, b in zip(nonzero, nonzero[1:])) and nonzero[-1] > nonzero[0]
        else:
            assert gaps[-1] < gaps[0]

    spec = three_agent_cycle()
    dims = ("ab_flow", "bc_flow", "ca_flow")
    offsets = {"A": 30, "B": 0, "C": -15}

    def assignment_for(cid: int) -> Assignment:
        if cid == 0:
            return Assignment(offsets=offsets)
        g = OSCILLATORY_GAINS[cid - 1]
        return Assignment(offsets=offsets, gain_overrides={"A": g, "B": g, "C": g})

    started = time.perf_counter()
    wins = 0
    for seed in range(50):
        seeded = spec.with_seed(300 + seed)
        candidates = [simulate_candidate(seeded, cid, 6, dims) for cid in range(5)]
        assignments = {cid: assignment_for(cid) for cid in range(5)}
        result = score_candidates(candidates, seeded,
                                  ReplayConfig(replays=32, seed=300 + seed),
                                  dims, assignments=assignments)
        wins += result.selected == 0
    elapsed = time.perf_counter() - started
    ok = wins >= 40 and elapsed < 120.0
    report(6, "anticipation-oracle", ok, f"baseline selected {wins}/50, {elapsed:.1f}s")
    assert wins >= 40
    assert elapsed < 120.0


def invoke(*argv):
    out = io.StringIO()
    code = run_cli(list(argv), out=out)
    return code, out.getvalue()


def test_7_byte_identical_reruns(tmp_path):
    target = tmp_path / "target.csv"
    code, _ = invoke("record", "--scenario", "three-agent-cycle", "--terms", "2",
                     "--out", str(target))
    assert code == 0

    results = {}
    for label, argv, outfile in (
        ("simulate", ["simulate", "--scenario", "national-5", "--terms", "3",
                      "--trace", "TRACE", "--record", "REC"], ("TRACE", "REC")),
        ("fit", ["fit", "--scenario", "three-agent-cycle", "--target", str(target),
                 "--budget", "50", "--out", "FIT"], ("FIT",)),
        ("anticipate", ["anticipate", "--scenario", "national-5", "--candidates", "3",
                        "--replays", "2", "--horizon", "2",
                        "--dims", "consumption_flow,bond_flow", "--out", "REP"], ("REP",)),
    ):
        runs = []
        for attempt in range(2):
            paths = {name: tmp_path / f"{label}-{name}-{attempt}" for name in outfile}
            argv_concrete = [paths[a].as_posix() if a in paths else a for a in argv]
            code, output = invoke(*argv_concrete)
            assert code == 0, (label, output)
            for name, p in paths.items():
                output = output.replace(p.as_posix(), name)
            runs.append((output, tuple(paths[n].read_bytes() for n in outfile)))
        results[label] = runs[0] == runs[1]
    ok = all(results.values())
    report(7, "determinism", ok, ", ".join(f"{k}={'ok' if v else 'DIFFERS'}"
                                           for k, v in results.items()))
    assert ok


def test_8_zero_gain_freeze():
    base = national_5()
    frozen = replace(
        base,
        agents=tuple(replace(a, gain=Fraction(0)) for a in base.agents),
    )
    state = build_network(frozen)
    initial_rates = {cid: ch.rate for cid, ch in state.channels.items()}
    record = run_record(state, 100)

    rates_frozen = all(state.channels[cid].rate == r for cid, r in initial_rates.items())
    first = record.sheets[0]
    flows_constant = all(sheet.figures == first.figures for sheet in record.sheets)
    coords_constant = all(
        sheet.notes_outstanding == 2000
        and sheet.securities_outstanding == 3000
        and sheet.rates == first.rates
        for sheet in record.sheets
    )
    ok = rates_frozen and flows_constant and coords_constant
    report(8, "zero-gain-freeze", ok,
           f"100 terms: rates_frozen={rates_frozen} flows_constant={flows_constant} "
           f"phase_coords_constant={coords_constant}")
    assert rates_frozen
    assert flows_constant
    assert coords_constant
