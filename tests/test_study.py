"""The README's "Reproducing the study figures" commands, the fig3a
`window` command and the `mitigate --sweep B0` line, run in-process at
README size and checked by the benchmark's checks in bench/checks.py.
Those checks import nothing of torusqubit: their constants, geometries and
reference formulas are typed apart from the program, so a fault in its
physics cannot also hide there.
"""

import importlib.util
from pathlib import Path

import pytest

from torusqubit.cli import main

CHECKS = Path(__file__).resolve().parents[1] / "bench" / "checks.py"
DE_SAMPLES = 10_000  # the default --samples of the README's dE scan

STUDY = {
    "sweep-fig3a": ["--preset", "fig3a", "sweep-b", "--b-range", "0:1.5:61", "--m-list", "0,1,-1"],
    "sweep-fig3b": ["--preset", "fig3b", "sweep-b", "--b-range", "0:1.5:61", "--m-list", "0"],
    "evolve": ["--preset", "fig5", "evolve", "--phase", "0.0"],
    "fidelity-dB": ["--preset", "fig5", "fidelity", "--scan", "dB", "--range", "0:0.01:21"],
    "mitigate": ["--preset", "fig5", "mitigate", "--delta-b", "0.005"],
    "fidelity-dE": ["--preset", "fig5", "fidelity", "--scan", "dE", "--range", "0:0.01:21"],
    "window": ["--preset", "fig3a", "window"],
    "mitigate-B0": ["--preset", "fig5", "--E0", "1000", "mitigate", "--sweep", "B0",
                    "--delta-e", "0.005", "--delta-b", "0"],
}


@pytest.fixture(scope="module")
def checks():
    spec = importlib.util.spec_from_file_location("bench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    """The directory of each command's artifacts, keyed as in STUDY."""
    root = tmp_path_factory.mktemp("study")
    for name, args in STUDY.items():
        assert main([*args, "--output-dir", str(root / name)]) == 0, name
    return {name: root / name for name in STUDY}


@pytest.mark.parametrize("name", sorted(STUDY))
def test_artifacts_parse_with_manifests(checks, study, name):
    checks.check_artifacts(study[name])


def test_level_diagram(checks, study):
    rows = checks.load_csv(study["sweep-fig3a"] / "sweep_b.csv")
    checks.check_zeeman(rows)
    checks.check_zero_field(rows)


def test_window_matches_the_level_diagram(checks, study):
    window = checks.load_json(study["window"] / "window.json")
    checks.check_window(window, checks.load_csv(study["sweep-fig3a"] / "sweep_b.csv"))


def test_bloch_trajectory_is_a_rabi_rotation(checks, study):
    manifest = checks.load_json(study["evolve"] / "trajectory.csv.manifest.json")
    rows = checks.load_csv(study["evolve"] / "trajectory.csv")
    checks.check_rabi_rotation(rows, manifest["results"]["pulse"])


@pytest.mark.parametrize("name", ["fidelity-dB", "fidelity-dE"])
def test_infidelity_rises_from_zero(checks, study, name):
    checks.check_infidelity_scan(checks.load_csv(study[name] / "fidelity.csv"))


def test_de_scan_is_the_closed_form(checks, study):
    checks.check_de_scan(checks.load_csv(study["fidelity-dE"] / "fidelity.csv"), DE_SAMPLES)


def test_stronger_drive_mitigates(checks, study):
    checks.check_mitigation(checks.load_csv(study["mitigate"] / "mitigate.csv"))


def test_drive_error_alone_is_flat_in_the_field(checks, study):
    # with --delta-b 0 only the Rabi rate errs, by 0.5%, and the Hadamard's
    # error depends on it only relative to the calibrated rate, whatever B0:
    # every row's exact Haar mean is (2/3) sin^2 chi at dE = 0.005
    # (checks.hadamard_de_infidelity); the rows spread by 3.07e-11 relative
    manifest = checks.load_json(study["mitigate-B0"] / "mitigate.csv.manifest.json")
    haar = manifest["results"]["haar_mean_exact"]
    assert len(haar) == len(checks.load_csv(study["mitigate-B0"] / "mitigate.csv"))
    assert max(haar) - min(haar) <= 1e-10 * min(haar)
    assert haar == pytest.approx([1.44523e-5] * len(haar), rel=1e-5)
