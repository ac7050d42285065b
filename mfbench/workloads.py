"""The three benchmark workloads: their inputs, one iteration, and its checks.

Each workload derives its scenario seeds from the workload seed, writes the
inputs the program reads (scenario files, target records) during set-up, and
then runs a fixed amount of work per iteration through the same entry points
a user calls. An iteration returns the SHA-256 of everything it produced and
the list of checks it failed.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

# Calls go through module attributes so that the tracer's wrappers see them.
import moneyflow as mf
from moneyflow import Assignment, PolicyAction, ReplayConfig, cli

SIMULATE_TERMS = 200
# national-5 scenario seeds fall in two groups whose iterations differ by 8%
# in Python function calls and by about 15% in time. The workload seed picks
# one of these, whose iterations make 711 thousand calls +/- 0.5% at the
# commit that introduced the benchmark, so that seeds compare.
SIMULATE_SEEDS = (
    1, 3, 5, 8, 10, 11, 12, 16, 18, 24, 27, 31,
    36, 44, 46, 51, 52, 57, 58, 62, 63, 64, 71, 73,
)
TAX_POLICY = (  # acceptance 3: both tax multipliers raised to 3/10 at t = 10
    PolicyAction(10.0, "set_multiplier", "tax_hh", Fraction(3, 10)),
    PolicyAction(10.0, "set_multiplier", "tax_corp", Fraction(3, 10)),
)

FIT_HIDDEN = Assignment(offsets={"A": 7, "B": -4, "C": 2})  # acceptance 5
FIT_TERMS = 4
FIT_ARGS = ("--budget", "10000", "--tol", "1e-3", "--starts", "8", "--strict")
# Fit cost differs about 50x between scenario seeds (39 to 2334 evaluations
# for seeds 100-199), so a batch drawn freely from the workload seed would
# swing wall_s far beyond any usable bound. Each batch below is a set of
# three-agent-cycle seeds whose fits make 1.284 million Python function calls
# +/- 0.3% in total, and whose timed cost was within 5% of 0.5 s (scaled as in
# host.py) at the commit that introduced the benchmark; the workload seed
# picks one. The call count tracked the time of single fits within 6%;
# balancing evaluations or engine events left batches 8-20% apart in time,
# because the cost of one event differs between seeds.
FIT_BATCHES = (
    (116, 142), (102, 175), (141, 157), (185, 187, 196), (136, 171, 177),
    (130, 173, 191), (152, 162), (112, 137, 161), (131, 170), (150, 169, 198),
    (128, 166, 199), (127, 134, 151),
)

ANTICIPATE_DIMS = ("ab_flow", "bc_flow", "ca_flow")
ANTICIPATE_OFFSETS = {"A": 30, "B": 0, "C": -15}  # acceptance 6
OSCILLATORY_GAINS = (Fraction(2), Fraction(5, 2), Fraction(3), Fraction(7, 2))
CANDIDATES = 5
REPLAYS = 32
HORIZON = 6
JOBS = 2


def derive(seed: int, label: str) -> int:
    """A 32-bit seed for one purpose, fixed by the workload seed."""
    digest = hashlib.sha256(f"{label}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass
class Inputs:
    """What set-up wrote, and the parameters an iteration passes along."""

    root: Path
    files: list[Path] = field(default_factory=list)
    params: dict = field(default_factory=dict)

    def digest(self) -> str:
        h = hashlib.sha256(json.dumps(self.params, sort_keys=True).encode())
        for path in self.files:
            h.update(path.name.encode() + b"\0" + path.read_bytes())
        return h.hexdigest()


@dataclass
class Outcome:
    digest: str
    failures: list[str]


class _Digest:
    """Output hash that is blind to where the work directory is."""

    def __init__(self, workdir: Path):
        self._h = hashlib.sha256()
        self._workdir = str(workdir)

    def add(self, label: str, data: bytes | str) -> None:
        if isinstance(data, str):
            data = data.replace(self._workdir, "WORKDIR").encode()
        self._h.update(label.encode() + b"\0" + len(data).to_bytes(8, "big") + data)

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    code = cli.run_cli(argv, out=out)
    return code, out.getvalue()


def _write_scenario(spec, path: Path):
    path.write_text(spec.to_json(), encoding="utf-8")
    loaded = mf.load_scenario(path)
    if loaded.fingerprint() != spec.fingerprint():
        raise RuntimeError(f"{path.name}: scenario changed on its way through the file")
    return loaded


# --------------------------------------------------------------------------
# simulate-n5: one long national-5 run through the CLI, written and read back
# --------------------------------------------------------------------------

def setup_simulate(seed: int, root: Path) -> Inputs:
    scenario_seed = SIMULATE_SEEDS[derive(seed, "simulate-n5") % len(SIMULATE_SEEDS)]
    spec = mf.national_5().with_seed(scenario_seed).with_extra_policy(TAX_POLICY)
    scenario = root / "national-5-tax.json"
    _write_scenario(spec, scenario)
    return Inputs(root, [scenario], {"terms": SIMULATE_TERMS})


def iterate_simulate(inputs: Inputs, out: Path, jobs: int) -> Outcome:
    scenario = str(inputs.files[0])
    terms = str(inputs.params["terms"])
    trace, csv, js = out / "events.jsonl", out / "record.csv", out / "record.json"
    runs = [
        ("simulate", ["simulate", "--scenario", scenario, "--terms", terms,
                      "--trace", str(trace), "--record", str(csv)],
         ("conservation=ok", "identities=ok")),
        ("record", ["record", "--scenario", scenario, "--terms", terms,
                    "--format", "json", "--out", str(js)], ()),
        ("verify", ["verify", "--record", str(csv)], ("identities=ok",)),
    ]
    digest, failures = _Digest(out), []
    for label, argv, required in runs:
        code, text = _cli(argv)
        digest.add(label, text)
        if code != 0:
            failures.append(f"{label} exited {code}")
        failures += [f"{label}: no {flag}" for flag in required if flag not in text.splitlines()]
    for path in (trace, csv, js):
        digest.add(path.name, path.read_bytes())
    return Outcome(digest.hexdigest(), failures)


# --------------------------------------------------------------------------
# fit-cycle: a fixed batch of acceptance-5 fits through the CLI
# --------------------------------------------------------------------------

def setup_fit(seed: int, root: Path) -> Inputs:
    scenario = root / "three-agent-cycle.json"
    spec = _write_scenario(mf.three_agent_cycle(), scenario)
    batch = FIT_BATCHES[derive(seed, "fit-cycle") % len(FIT_BATCHES)]
    files = [scenario]
    for s in batch:
        target = root / f"target-{s}.csv"
        mf.write_record(mf.retrace(FIT_HIDDEN, spec.with_seed(s), FIT_TERMS), target)
        files.append(target)
    return Inputs(root, files, {"seeds": list(batch)})


def iterate_fit(inputs: Inputs, out: Path, jobs: int) -> Outcome:
    scenario = str(inputs.files[0])
    digest, failures = _Digest(out), []
    for s, target in zip(inputs.params["seeds"], inputs.files[1:]):
        result = out / f"fit-{s}.json"
        code, text = _cli(["fit", "--scenario", scenario, "--seed", str(s),
                           "--target", str(target), *FIT_ARGS, "--out", str(result)])
        digest.add(f"stdout-{s}", text)
        if code != 0:
            failures.append(f"fit seed {s} exited {code}")
            continue
        payload = result.read_bytes()
        digest.add(result.name, payload)
        doc = json.loads(payload)
        if not (doc["converged"] and doc["error"] <= 1e-3):
            failures.append(f"fit seed {s} did not converge (error {doc['error']})")
    return Outcome(digest.hexdigest(), failures)


# --------------------------------------------------------------------------
# anticipate-cycle: one acceptance-6 candidate set scored under shock replays
# --------------------------------------------------------------------------

def setup_anticipate(seed: int, root: Path) -> Inputs:
    scenario = root / "three-agent-cycle.json"
    _write_scenario(mf.three_agent_cycle().with_seed(derive(seed, "anticipate-cycle")), scenario)
    return Inputs(root, [scenario], {"replay_seed": derive(seed, "anticipate-cycle/replays")})


def _assignment(candidate: int) -> Assignment:
    if candidate == 0:
        return Assignment(offsets=ANTICIPATE_OFFSETS)
    gain = OSCILLATORY_GAINS[candidate - 1]
    return Assignment(offsets=ANTICIPATE_OFFSETS, gain_overrides=dict.fromkeys("ABC", gain))


def iterate_anticipate(inputs: Inputs, out: Path, jobs: int) -> Outcome:
    spec = mf.load_scenario(inputs.files[0])
    candidates = [mf.simulate_candidate(spec, c, HORIZON, ANTICIPATE_DIMS) for c in range(CANDIDATES)]
    config = ReplayConfig(replays=REPLAYS, seed=inputs.params["replay_seed"], jobs=jobs)
    report = mf.score_candidates(candidates, spec, config, ANTICIPATE_DIMS,
                              assignments={c: _assignment(c) for c in range(CANDIDATES)})
    payload = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    (out / "report.json").write_text(payload, encoding="utf-8")
    digest, failures = _Digest(out), []
    digest.add("report.json", payload)
    if len(report.scores) != CANDIDATES:
        failures.append(f"{len(report.scores)} candidates scored, expected {CANDIDATES}")
    for score in report.scores:
        if len(score.divergences) != REPLAYS or not all(map(math.isfinite, score.divergences)):
            failures.append(f"candidate {score.candidate_id}: expected {REPLAYS} finite divergences")
    return Outcome(digest.hexdigest(), failures)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Path], Inputs]
    iterate: Callable[[Inputs, Path, int], Outcome]
    fans_out: bool = False  # the iteration's `jobs` opens worker processes


WORKLOADS = {
    w.name: w for w in (
        Workload("simulate-n5", setup_simulate, iterate_simulate),
        Workload("fit-cycle", setup_fit, iterate_fit),
        Workload("anticipate-cycle", setup_anticipate, iterate_anticipate, fans_out=True),
    )
}
