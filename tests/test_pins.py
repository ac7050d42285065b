"""Byte-level pins of simulator output across versions.

Each pin is the SHA-256 of an output a user keeps: the event trace and the
CSV and JSON records of every built-in scenario at two seeds, the record of
a non-unit term length with shocks on term boundaries, a run in which agents
adjust, the `fit --out` and `anticipate --out` JSON of the acceptance-7
invocations, and the robustness report of one acceptance-6 candidate set. A
change that moves any of them must say why in CHANGES.md and update the pin.

Traces hold no wake-ups that change nothing, such as one whose carried
residual cannot move a rate. The built-in scenarios start
balanced, so their traces hold only the term cuts (and national-5's
issuance); three-agent-cycle and two-agent-kernel give the same trace at
both seeds. The live-dynamics pin covers adjustment, settlement and
residual payloads.
"""

import hashlib
import io
import json
from dataclasses import replace
from fractions import Fraction

import pytest

from moneyflow import (
    Assignment,
    BUILTIN_SCENARIOS,
    ReplayConfig,
    ShockSpec,
    build_network,
    event_trace,
    run_record,
    score_candidates,
    simulate_candidate,
    three_agent_cycle,
    three_agent_skew,
)
from moneyflow.cli import run_cli
from moneyflow.network import Event
from moneyflow.recorder import record_to_csv, record_to_json
from moneyflow.retrieval import apply_assignment

from conftest import residual_only_updates, wider_rule_run

PIN_TERMS = 6


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def output_digests(spec, n_terms: int, assignment: Assignment | None = None) -> tuple[str, str, str]:
    """SHA-256 of the event trace, CSV record and JSON record of one run."""
    state = build_network(spec)
    if assignment is not None:
        apply_assignment(state, assignment)
    record = run_record(state, n_terms)
    return tuple(sha256(text) for text in
                 (event_trace(state.log), record_to_csv(record), record_to_json(record)))


def boundary_shock_spec():
    """three-agent-cycle at term length 1/3 with shocks at two term boundaries."""
    length = 1 / 3
    spec = replace(three_agent_cycle(), term_length=length)
    shocks = [ShockSpec(5 * length, "ab", 40), ShockSpec(7 * length, "bc", -25)]
    return spec.with_extra_shocks(shocks)


SCENARIO_PINS = {
    ("national-5", 3): (
        "53fc4f37ee9328f5446f4dbf9e8cfab2b9ed70452e6c3393136eb0b2dca88cc6",
        "e3a433508c71720efa3511bfbb6b1a1b20bbd0627fc7cf29fbb73f09de3f3268",
        "c044799bd1c4a6ea3106b5ac79643c57f6ba57ecaaa8b103840334d236b61865",
    ),
    ("national-5", 8): (
        "d9636527d1301e086156630e3eb659641a9efd6e7e5e569a4c73935467c4bda3",
        "ad2d26d49635e58356c5afd7897993922ace3195853f006ddac6f8802756a5b7",
        "aaba5b45a5f9203ff96bf4d998f8ee6b627fe0b8e7af7c8790dbecf41af2a988",
    ),
    ("three-agent-cycle", 3): (
        "9105b8226aaf12072edd4352fde4dd6a3c9802697ef88f9578398daa6444889f",
        "801cf8d85c832bb208449b181072e43a398fa592dafbc2f85dd775c389ab0a2c",
        "e45ed905a1bdaae0b6d0f993f109482b3c2ef3c628ff62b831606bab35fe571c",
    ),
    ("three-agent-cycle", 8): (
        "9105b8226aaf12072edd4352fde4dd6a3c9802697ef88f9578398daa6444889f",
        "eea41a452e6c50ea25f238f875143d33bc16d3bdd8c84ae9c0f68b183c4ce74a",
        "445ce79ab0636746b98681e416117f1679b28a71fd854a91acd7fe1f45d1c651",
    ),
    ("three-agent-skew", 3): (
        "4c3f5e07944fffc960aa4a2432d95eecdd30d1ca8e0e739bc10b7a51f25e693e",
        "2999ea622f9d9abc77eb05c6a1365adecdcd8aeefcdf6940743500a35eb602ef",
        "585e314f90fa62c3b4aace78548376c39d98183d08443ae084d2c7b2864e3309",
    ),
    ("three-agent-skew", 8): (
        "2524379737b82674b301a6b034222fd6b3711b9948c846e7be0f0850ac894405",
        "5fc94f38e738a7f412a39805a4a26d3e610caed0d4951a8192dccd822fe9782d",
        "09d51bbac38ed8fd3722a2bd9291b61da94a3c406a6d06d508117e30143cceb3",
    ),
    ("two-agent-kernel", 3): (
        "42102b09c1d7908e3661a0dfcc48b1c7e969b34250ef0f554edb780853893740",
        "705be772de4b332cf28efcf8d3d53971b104caa4e2c5353a06b105ee47b38337",
        "f0c23be556eefaf52f310d0acdca00b315d5dc82d4558124523e1d27cbc287d0",
    ),
    ("two-agent-kernel", 8): (
        "42102b09c1d7908e3661a0dfcc48b1c7e969b34250ef0f554edb780853893740",
        "7552d45fa1795a51ae986a4f171beac29120132805e501b9b7458af28b2daa26",
        "7d5693b61bd81cfbf3a8ed0d7c59d4d63ab7cf78852b23a94d9fc280ac98f02c",
    ),
}


@pytest.mark.parametrize("name,seed", sorted(SCENARIO_PINS))
def test_builtin_scenario_outputs_pinned(name, seed):
    spec = BUILTIN_SCENARIOS[name]().with_seed(seed)
    assert output_digests(spec, PIN_TERMS) == SCENARIO_PINS[(name, seed)]


def test_non_unit_term_length_pinned():
    assert output_digests(boundary_shock_spec(), 8) == (
        "0946cf75e8c8b0d867cce263c1559c0f7079be5a55e65e89facd886777d4c977",
        "be62f2e292ce682fa999f903d5f733c3b5b71f35973a85e39cbc8448477f2c3d",
        "7f0300ad1802b035708a23f78f8b43d24cd7a3ad410718f2f0556028c40d9298",
    )


# The acceptance-6 hidden offsets at gain 3: agents adjust in terms 0-3.
LIVE_SPEC = three_agent_cycle(gain=Fraction(3))
LIVE_OFFSETS = Assignment(offsets={"A": 30, "B": 0, "C": -15})


LIVE_PINS = (
    "f2c57b10e9acb9d45c0b2eea8585e8e66b8bc7de281367d260d6421734e38e16",
    "9ec55fc3d6b597770fe60806251b19e4124d7d9f0b10ec3498137837f9b7079a",
    "13c83cf8ae2585acdf464280ea615b503324b7d4d7c86ca15d4db121271a8d9e",
)


def test_live_dynamics_pinned():
    assert output_digests(LIVE_SPEC, PIN_TERMS, LIVE_OFFSETS) == LIVE_PINS


# Two trace pins moved when wakes whose residual cannot move a rate stopped
# being logged. Each new trace is the older one without those updates (a zero
# deficit and all-zero deltas), renumbered; (older pin, new pin).
MOVED_TRACE_PINS = {
    "three-agent-skew-3": ((three_agent_skew().with_seed(3), None),
                           "00fe6deefa730dc9442e5c4673605ddbb8ca03a31d3beb6131520d871b513414",
                           SCENARIO_PINS[("three-agent-skew", 3)][0]),
    "live-dynamics": ((LIVE_SPEC, LIVE_OFFSETS),
                      "6614c8cf49308f31f83dd0564c6ad5f1b75717dc831e00a39bb9eb276027c3bc",
                      LIVE_PINS[0]),
}


@pytest.mark.parametrize("name", sorted(MOVED_TRACE_PINS))
def test_moved_trace_pins_drop_only_residual_only_updates(name):
    (spec, assignment), older, pin = MOVED_TRACE_PINS[name]
    log = wider_rule_run(spec, PIN_TERMS, assignment).log
    assert sha256(event_trace(log)) == older
    skipped = residual_only_updates(log)
    assert skipped
    kept = [ev for ev in log if ev not in skipped]
    renumbered = [Event(ev.time, seq, ev.kind, ev.payload) for seq, ev in enumerate(kept)]
    assert sha256(event_trace(renumbered)) == pin


FIT_OUT_PIN = "6293753c2674fcf0b7e60229035d7c8f20eee4b95532669bbbeb42cbcf514aec"
ANTICIPATE_OUT_PIN = "8cc04172b9ba85179de8b7613d5f826915c1384ad684b6406a729f82df4dcfe8"


def test_fit_out_pinned(tmp_path):
    target, result = tmp_path / "target.csv", tmp_path / "fit.json"
    for argv in (
        ["record", "--scenario", "three-agent-cycle", "--terms", "2", "--out", str(target)],
        ["fit", "--scenario", "three-agent-cycle", "--target", str(target),
         "--budget", "50", "--out", str(result)],
    ):
        assert run_cli(argv, out=io.StringIO()) == 0
    assert sha256(result.read_text(encoding="utf-8")) == FIT_OUT_PIN


def test_anticipate_out_pinned(tmp_path):
    report = tmp_path / "report.json"
    argv = ["anticipate", "--scenario", "national-5", "--candidates", "3", "--replays", "2",
            "--horizon", "2", "--dims", "consumption_flow,bond_flow", "--out", str(report)]
    assert run_cli(argv, out=io.StringIO()) == 0
    assert sha256(report.read_text(encoding="utf-8")) == ANTICIPATE_OUT_PIN


# acceptance 6 at seed 300: 5 candidates, horizon 6, 32 replays, offsets
# {A: 30, B: 0, C: -15} on every candidate and gain overrides 2, 5/2, 3, 7/2
# on candidates 1-4. Unlike the national-5 report above, its divergences are
# nonzero, so the pin sees the scoring.
ACCEPTANCE_6_REPORT_PIN = "7dc8840cf2289dd0cb7da5766e31d357b24af11d149658b8ccb34737d5a80f32"
OSCILLATORY_GAINS = (Fraction(2), Fraction(5, 2), Fraction(3), Fraction(7, 2))


@pytest.mark.parametrize("jobs", [1, 2])
def test_acceptance_6_report_pinned(jobs):
    spec = three_agent_cycle().with_seed(300)
    dims = ("ab_flow", "bc_flow", "ca_flow")
    offsets = {"A": 30, "B": 0, "C": -15}
    assignments = {0: Assignment(offsets=offsets)}
    for cid, gain in enumerate(OSCILLATORY_GAINS, start=1):
        assignments[cid] = Assignment(offsets=offsets, gain_overrides=dict.fromkeys("ABC", gain))
    candidates = [simulate_candidate(spec, cid, 6, dims) for cid in range(5)]
    report = score_candidates(candidates, spec, ReplayConfig(replays=32, seed=300, jobs=jobs),
                              dims, assignments=assignments)
    payload = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    assert sha256(payload) == ACCEPTANCE_6_REPORT_PIN
