"""Byte-level pins of simulator output across versions.

Each pin is the SHA-256 of an output a user keeps: the event trace and the
CSV and JSON records of every built-in scenario at two seeds, the record of
a non-unit term length with shocks on term boundaries, and the `fit --out`
and `anticipate --out` JSON of the acceptance-7 invocations. A change that moves any of them must
say why in CHANGES.md and update the pin.
"""

import hashlib
import io
from dataclasses import replace

import pytest

from moneyflow import (
    BUILTIN_SCENARIOS,
    ShockSpec,
    build_network,
    event_trace,
    run_record,
    three_agent_cycle,
)
from moneyflow.cli import run_cli
from moneyflow.recorder import record_to_csv, record_to_json

PIN_TERMS = 6


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def output_digests(spec, n_terms: int) -> tuple[str, str, str]:
    """SHA-256 of the event trace, CSV record and JSON record of one run."""
    state = build_network(spec)
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
        "079c334fab32ff325999305d187d1539d2b4d8645e58c4d10647160a3c6f4453",
        "e3a433508c71720efa3511bfbb6b1a1b20bbd0627fc7cf29fbb73f09de3f3268",
        "c044799bd1c4a6ea3106b5ac79643c57f6ba57ecaaa8b103840334d236b61865",
    ),
    ("national-5", 8): (
        "f9aaff5a64b63e033bde34d5fc1e7769780763f7c39dfd54141c6e290b7ad9fd",
        "ad2d26d49635e58356c5afd7897993922ace3195853f006ddac6f8802756a5b7",
        "aaba5b45a5f9203ff96bf4d998f8ee6b627fe0b8e7af7c8790dbecf41af2a988",
    ),
    ("three-agent-cycle", 3): (
        "d97ea62330b1cecdecdd22b63d39638277717cdd43e68659e930948566d72618",
        "801cf8d85c832bb208449b181072e43a398fa592dafbc2f85dd775c389ab0a2c",
        "e45ed905a1bdaae0b6d0f993f109482b3c2ef3c628ff62b831606bab35fe571c",
    ),
    ("three-agent-cycle", 8): (
        "3a6072d03e5336e9c9713b26ea4e4a269a98fdd808021b399a219b55e8fd5a8b",
        "eea41a452e6c50ea25f238f875143d33bc16d3bdd8c84ae9c0f68b183c4ce74a",
        "445ce79ab0636746b98681e416117f1679b28a71fd854a91acd7fe1f45d1c651",
    ),
    ("three-agent-skew", 3): (
        "6d0185bef704e7e596cd3fbf0099e708a75fddfaf23efe9e2e2f86b459885a52",
        "2999ea622f9d9abc77eb05c6a1365adecdcd8aeefcdf6940743500a35eb602ef",
        "585e314f90fa62c3b4aace78548376c39d98183d08443ae084d2c7b2864e3309",
    ),
    ("three-agent-skew", 8): (
        "6330341d122cd722f189a0072dc5bce8e093bc50278e24c3e1741e7421024d51",
        "5fc94f38e738a7f412a39805a4a26d3e610caed0d4951a8192dccd822fe9782d",
        "09d51bbac38ed8fd3722a2bd9291b61da94a3c406a6d06d508117e30143cceb3",
    ),
    ("two-agent-kernel", 3): (
        "b32487236bea2e83c04e7e02b57116494bd6e115df05cbf6b1d58275feb09cea",
        "705be772de4b332cf28efcf8d3d53971b104caa4e2c5353a06b105ee47b38337",
        "f0c23be556eefaf52f310d0acdca00b315d5dc82d4558124523e1d27cbc287d0",
    ),
    ("two-agent-kernel", 8): (
        "157a6159e499eb468e3e6cd47c8afe75a70555a60e7051c81e5e462456baf3c3",
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
        "e2808c14ae8f0f4bc5d41ac262f870522a9d9e021ab736b48e30534bd4cf91c7",
        "be62f2e292ce682fa999f903d5f733c3b5b71f35973a85e39cbc8448477f2c3d",
        "7f0300ad1802b035708a23f78f8b43d24cd7a3ad410718f2f0556028c40d9298",
    )


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
