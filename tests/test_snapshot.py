"""Behaviour snapshot: canonical CLI commands at small sizes, compared with
committed reference data files under tests/snapshots/<case>/.

Tolerances:
- every data file must equal its reference byte for byte;
- except three-level trajectories (`evolve --three-level`), whose header,
  comment and row count must be equal and whose values must agree to
  1e-11 absolute.  Their integrator tolerance is 1e-9, and a change that
  reorders the same arithmetic moves them by roundoff only;
- except Monte-Carlo infidelities (`fidelity`, `mitigate`), whose header,
  row count and first column (the scanned value) must be equal and whose
  infidelity columns must agree to 2e-15 absolute.  Each per-sample
  infidelity carries about 8e-16 of roundoff, so a change of the kernel's
  arithmetic moves the mean and the max by that much.

Manifests are not compared: they hold a creation timestamp.

After an intended change of output, rewrite the references of the cases
whose output changed, named as in CASES, with

    PYTHONPATH=src python tests/test_snapshot.py CASE [CASE ...]

Only the named cases are rewritten, and an unknown name rewrites nothing.
A rewrite of a Monte-Carlo case takes its values from this machine's BLAS
kernel, which can move them by roundoff alone, so name only the cases the
change is meant to move.
"""

import csv
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from torusqubit.cli import main

SNAPSHOTS = Path(__file__).parent / "snapshots"
THREE_LEVEL_ATOL = 1e-11
MONTE_CARLO_ATOL = 2e-15

FIG5 = ["--preset", "fig5"]
CASES = {
    "evolve": [*FIG5, "evolve", "--samples", "21"],
    "evolve-rabi": [*FIG5, "evolve", "--rabi", "1e9", "--phase", "0.7", "--samples", "21"],
    "evolve-3level": [*FIG5, "evolve", "--three-level", "--samples", "21"],
    "evolve-3level-rabi": [*FIG5, "evolve", "--three-level", "--rabi", "1e9",
                           "--detuning", "1e8", "--samples", "21"],
    "gate-rwa-leakage": [*FIG5, "gate", "--leakage"],
    "gate-labframe-leakage": [*FIG5, "gate", "--mode", "labframe", "--leakage"],
    "gate-prep-rwa": [*FIG5, "gate", "--gate", "prep:1.2,0.7", "--leakage"],
    "gate-prep-labframe": [*FIG5, "gate", "--gate", "prep:1.2,0.7", "--mode", "labframe"],
    "gate-phase-leakage": [*FIG5, "gate", "--gate", "phase:1.0", "--leakage"],
    "gate-phase-labframe": [*FIG5, "gate", "--gate", "phase:1.0", "--mode", "labframe"],
    "qubit-params": [*FIG5, "qubit-params"],
    "qubit-params-fig3b-b0": ["--preset", "fig3b", "--B", "0", "qubit-params"],
    "spectrum": [*FIG5, "--n-points", "256", "spectrum"],
    "potential": ["--preset", "fig3a", "--B", "0.45", "--n-points", "64",
                  "potential", "--E-static", "10"],
    "window": ["--preset", "fig3a", "--n-points", "256", "window"],
    "sweep-b": ["--preset", "fig3a", "--n-points", "256", "sweep-b", "--b-range", "0:1.5:7",
                "--m-list", "0,1,-1"],
    "fidelity": [*FIG5, "fidelity", "--scan", "dB", "--range", "0:0.01:11", "--samples", "2000"],
    "fidelity-multichunk": [*FIG5, "fidelity", "--scan", "dE", "--range", "0:0.01:3",
                            "--samples", "100000"],
    "fidelity-labframe": [*FIG5, "fidelity", "--scan", "dB", "--range", "0:0.01:3",
                          "--samples", "500", "--mode", "labframe"],
    "mitigate": [*FIG5, "mitigate", "--delta-b", "0.005", "--samples", "2000"],
}
MONTE_CARLO = ("fidelity", "mitigate")


def _data_files(directory: Path) -> dict[str, Path]:
    return {p.name: p for p in directory.iterdir() if not p.name.endswith(".manifest.json")}


def _rows(path: Path) -> tuple[list[list[str]], np.ndarray]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    text = [r for r in rows if not r[0][0].isdigit()]  # comment and header
    values = np.array([[float(v) for v in r] for r in rows if r[0][0].isdigit()])
    return text, values


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_snapshot(case, tmp_path, capsys):
    assert main([*CASES[case], "--output-dir", str(tmp_path)]) == 0
    produced, expected = _data_files(tmp_path), _data_files(SNAPSHOTS / case)
    assert sorted(produced) == sorted(expected)
    for name, path in expected.items():
        if "--three-level" in CASES[case]:
            got_text, got = _rows(produced[name])
            want_text, want = _rows(path)
            assert got_text == want_text and got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0.0, atol=THREE_LEVEL_ATOL)
        elif any(command in CASES[case] for command in MONTE_CARLO):
            got_text, got = _rows(produced[name])
            want_text, want = _rows(path)
            assert got_text == want_text and got.shape == want.shape
            np.testing.assert_array_equal(got[:, 0], want[:, 0])
            np.testing.assert_allclose(got[:, 1:], want[:, 1:], rtol=0.0, atol=MONTE_CARLO_ATOL)
        else:
            assert produced[name].read_bytes() == path.read_bytes(), f"{case}/{name}"


def _rewrite(cases: list[str]) -> None:
    unknown = sorted(set(cases) - set(CASES))
    if not cases or unknown:
        problem = f"unknown cases {unknown}" if unknown else "name the cases to rewrite"
        raise SystemExit(f"{problem}; choose from {', '.join(sorted(CASES))}")
    for case in cases:
        argv, out = CASES[case], SNAPSHOTS / case
        shutil.rmtree(out, ignore_errors=True)
        if main([*argv, "--output-dir", str(out)]) != 0:
            raise SystemExit(f"{case} failed")
        for manifest in out.glob("*.manifest.json"):
            manifest.unlink()


if __name__ == "__main__":
    sys.exit(_rewrite(sys.argv[1:]))
