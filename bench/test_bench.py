"""Tests of the benchmark itself: every workload runs end to end at its
smallest size, and every checker rejects a corrupted copy of a real artifact.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
from checks import CheckFailed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
KNOWN_FAULTS = {"error-study": 1}  # failing operations per round


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--seed", "7", "--seconds", "1", "--size", "smoke", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory) -> dict:
    """Smoke runs of every workload, results and a copy of their first round."""
    copy = tmp_path_factory.mktemp("artifacts")
    results = {}
    for workload in (w["name"] for w in SPEC["workloads"]):
        proc = run_bench("--workload", workload, "--trace", "0")
        assert proc.returncode == 0, proc.stderr
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
        shutil.copytree(ROOT / ".bench_out" / workload / "round-0", copy / workload)
    return {"results": results, "dir": copy}


def op_dir(artifacts, workload: str, op: str) -> Path:
    (path,) = artifacts["dir"].joinpath(workload).glob(f"*-{op}")
    return path


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_end_to_end(artifacts, workload):
    result = artifacts["results"][workload]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    rounds = result["attempted"] // len(list(artifacts["dir"].joinpath(workload).glob("*.out")))
    assert result["failed"] == KNOWN_FAULTS.get(workload, 0) * rounds
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


def test_traced_run_reports_every_layer_metric():
    proc = run_bench("--workload", "grid-refine", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert result["metrics"]["spectral.calls"]["value"] > 0
    assert result["metrics"]["spectral.solve_peak_mib"]["value"] > 0
    trace = json.loads((ROOT / ".bench_out" / "grid-refine" / "trace.json").read_text(encoding="utf-8"))
    spans = trace["operations"]["spectrum-n1024"]["spans"]
    assert spans[0]["name"] == "cli.main" and spans[0]["parent"] is None


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "labframe", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


# --------------------------------------------------------- corrupted artifacts


def _edit_csv(path: Path, edit) -> None:
    """Apply edit(header, fields) to the data rows of a CSV artifact."""
    lines = path.read_text(encoding="utf-8").splitlines()
    first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    header = lines[first].split(",")
    rows = [line.split(",") for line in lines[first + 1:]]
    edit(header, rows)
    path.write_text("\n".join(lines[: first + 1] + [",".join(r) for r in rows]) + "\n", encoding="utf-8")


def _scale_field(column: str, factor: float, select=lambda h, r: True, count: int = 1):
    def edit(header, rows):
        idx = header.index(column)
        hits = [r for r in rows if select(header, r)][:count]
        for row in hits:
            row[idx] = repr(float(row[idx]) * factor)

    return edit


def _edit_json(path: Path, edit) -> None:
    payload = json.loads(path.read_text(encoding="utf-8"))
    edit(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")


def _m_plus_one_above_zero(header, row):
    return row[header.index("m")] == "1" and float(row[header.index("B")]) > 0


def _widen_window(payload):
    payload["B_max_T"] = 2.0


def _scale_unitary(payload):
    payload["unitary"] = [[[1.01 * re, 1.01 * im] for re, im in row] for row in payload["unitary"]]


def _unbind_ground_at_zero(header, rows):
    rows[0][header.index("bound")] = "false"


def _raise_p2(header, rows):
    rows[-1][header.index("p2")] = "0.002"


def _odd_ground(payload):
    payload["energy_internal"][-1][0] *= 1.0 + 1e-6


def _swap_means(header, rows):
    idx = header.index("mean_infidelity")
    rows[3][idx], rows[4][idx] = rows[4][idx], rows[3][idx]


def _raise_last_mean(header, rows):
    idx = header.index("mean_infidelity")
    rows[-1][idx] = repr(2.0 * float(rows[0][idx]))


def _shift_closed_epsilon(payload):
    payload["sources"]["closed_form"]["epsilon"] *= 1.0 + 1e-8


def _fig3a_rows(art):
    return checks.load_csv(op_dir(art, "field-sweep", "sweep-fig3a") / "sweep_b.csv")


def _spectra(art):
    return {
        n: [r["energy"] for r in checks.load_csv(op_dir(art, "grid-refine", f"spectrum-n{n}") / "spectrum.csv")]
        for n in (256, 512, 1024)
    }


def _esweep(art):
    payload = checks.load_json(op_dir(art, "grid-refine", "e-sweep") / "esweep.json")
    return payload["E_V_per_m"], [levels[0] for levels in payload["energy_internal"]]


def _pulse(art):
    manifest = checks.load_json(op_dir(art, "error-study", "evolve") / "trajectory.csv.manifest.json")
    return manifest["results"]["pulse"]


# (workload, operation, file, corruption, check run on the operation's directory)
CORRUPTIONS = {
    "zeeman: one m=+1 energy shifted 5%": (
        "field-sweep", "sweep-fig3a", "sweep_b.csv", _scale_field("energy", 1.05, _m_plus_one_above_zero),
        lambda art, d: checks.check_zeeman(_fig3a_rows(art))),
    "zero field: ground state not bound": (
        "field-sweep", "sweep-fig3a", "sweep_b.csv", _unbind_ground_at_zero,
        lambda art, d: checks.check_zero_field(_fig3a_rows(art))),
    "window: upper edge moved to 2 T": (
        "field-sweep", "window", "window.json", _widen_window,
        lambda art, d: checks.check_window(checks.load_json(d / "window.json"), _fig3a_rows(art))),
    "convergence: one level off by 1e-6": (
        "grid-refine", "spectrum-n512", "spectrum.csv", _scale_field("energy", 1.0 + 1e-6),
        lambda art, d: checks.check_convergence(_spectra(art))),
    "E sweep: ground energy not even": (
        "grid-refine", "e-sweep", "esweep.json", _odd_ground,
        lambda art, d: checks.check_e_sweep(*_esweep(art))),
    "gate: unitary scaled by 1.01": (
        "labframe", "hadamard-e100", "gate.json", _scale_unitary,
        lambda art, d: checks.check_gate(checks.load_json(d / "gate.json"))),
    "gate: NaN in the JSON": (
        "labframe", "prep-leakage", "gate.json", lambda p: p.update(fidelity_to_ideal=float("nan")),
        lambda art, d: checks.check_artifacts(d)),
    "three-level: p2 of 2e-3": (
        "labframe", "evolve-3level", "trajectory.csv", _raise_p2,
        lambda art, d: checks.check_three_level(checks.load_csv(d / "trajectory.csv"))),
    "trajectory: z off by 1e-6": (
        "error-study", "evolve", "trajectory.csv", _scale_field("z", 1.0 + 1e-6, lambda h, r: float(r[h.index("t")]) > 0),
        lambda art, d: checks.check_rabi_rotation(checks.load_csv(d / "trajectory.csv"), _pulse(art))),
    "scan: two means swapped": (
        "error-study", "fidelity-dB", "fidelity.csv", _swap_means,
        lambda art, d: checks.check_infidelity_scan(checks.load_csv(d / "fidelity.csv"))),
    "dE scan: means 5% high": (
        "error-study", "fidelity-dE", "fidelity.csv", _scale_field("mean_infidelity", 1.05, count=21),
        lambda art, d: checks.check_de_scan(checks.load_csv(d / "fidelity.csv"), 10_000)),
    "mitigation: last mean raised": (
        "error-study", "mitigate", "mitigate.csv", _raise_last_mean,
        lambda art, d: checks.check_mitigation(checks.load_csv(d / "mitigate.csv"))),
    "coefficient routes: epsilon off by 1e-8": (
        "error-study", "qubit-params", "qubit_params.json", _shift_closed_epsilon,
        lambda art, d: checks.check_epsilon_routes(checks.load_json(d / "qubit_params.json"), "fig5")),
}


@pytest.mark.parametrize("case", list(CORRUPTIONS))
def test_checker_rejects_corrupted_artifact(artifacts, case):
    workload, op, filename, corrupt, check = CORRUPTIONS[case]
    directory = op_dir(artifacts, workload, op)
    path = directory / filename
    original = path.read_bytes()
    try:
        check(artifacts, directory)  # the real artifact passes
        if path.suffix == ".csv":
            _edit_csv(path, corrupt)
        else:
            _edit_json(path, corrupt)
        with pytest.raises(CheckFailed):
            check(artifacts, directory)
    finally:
        path.write_bytes(original)
