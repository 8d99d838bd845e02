"""The README, rerun: every `torusqubit` line of its fenced blocks runs
in-process into its own directory, the checks of bench/checks.py read the
lines' artifacts, and each number its prose quotes is recomputed at the size
it states and compared at the precision it prints.  Each invocation the
exit-code lists quote runs as written to its list's exit code and the
`error:` line quoted after it.

The checks import nothing of torusqubit: their constants, geometries and
reference formulas are typed apart from the program, so a fault in its
physics cannot also hide there.
"""

import ast
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from conftest import README, check_failure, readme_commands
from oracles import ICOSAHEDRON
from torusqubit.cli import build_parser, main
from torusqubit.model import E_CHARGE, HBAR, Discretization, TorusGeometry, UnitSystem
from torusqubit.potential import PotentialParams
from torusqubit.reduction import coefficients_closed_form, coefficients_numerical, qubit_for
from torusqubit.spectral import initialization_window, solve_sector

TESTS = Path(__file__).resolve().parent
COMMANDS = readme_commands()


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    """Each README command's exit code and artifact directory, keyed by its line."""
    root = tmp_path_factory.mktemp("study")
    return {line: (main([*shlex.split(line), "--output-dir", str(root / str(i))]), root / str(i))
            for i, line in enumerate(COMMANDS)}


def artifacts(study, selector: str) -> list[Path]:
    """The artifact directories of the README commands that hold selector."""
    runs = [study[line] for line in readme_commands(selector)]
    assert all(code == 0 for code, _ in runs), selector
    return [out for _, out in runs]


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_runs(checks, study, line):
    code, out = study[line]
    assert code == 0
    checks.check_artifacts(out)


def test_level_diagram(checks, study):
    for out in artifacts(study, "--preset fig3a sweep-b"):
        rows = checks.load_csv(out / "sweep_b.csv")
        checks.check_zeeman(rows)
        checks.check_zero_field(rows)


def test_window_matches_the_level_diagram(checks, study):
    [window] = [checks.load_json(out / "window.json")
                for out in artifacts(study, "--preset fig3a window")]
    for out in artifacts(study, "--preset fig3a sweep-b"):
        checks.check_window(window, checks.load_csv(out / "sweep_b.csv"))


def test_bloch_trajectory_is_a_rabi_rotation(checks, study):
    for out in artifacts(study, "evolve --phase"):
        manifest = checks.load_json(out / "trajectory.csv.manifest.json")
        checks.check_rabi_rotation(checks.load_csv(out / "trajectory.csv"),
                                   manifest["results"]["pulse"])


@pytest.mark.parametrize("scan", ["dB", "dE"], ids=lambda scan: f"fidelity-{scan}")
def test_infidelity_rises_from_zero(checks, study, scan):
    for out in artifacts(study, f"fidelity --scan {scan}"):
        checks.check_infidelity_scan(checks.load_csv(out / "fidelity.csv"))


def test_de_scan_is_the_closed_form(checks, study):
    for line in readme_commands("fidelity --scan dE"):
        samples = build_parser().parse_args(shlex.split(line)).samples
        checks.check_de_scan(checks.load_csv(study[line][1] / "fidelity.csv"), samples)


def test_stronger_drive_mitigates(checks, study):
    for out in artifacts(study, "mitigate --delta-b 0.005"):
        checks.check_mitigation(checks.load_csv(out / "mitigate.csv"))


def test_drive_error_alone_is_flat_in_the_field(checks, study):
    # with --delta-b 0 only the Rabi rate errs, by 0.5%, and the Hadamard's
    # error depends on it only relative to the calibrated rate, whatever B0:
    # every row's exact Haar mean is (2/3) sin^2 chi at dE = 0.005
    # (checks.hadamard_de_infidelity); the rows spread by 3.07e-11 relative
    for out in artifacts(study, "mitigate --sweep B0"):
        manifest = checks.load_json(out / "mitigate.csv.manifest.json")
        rows = checks.load_csv(out / "mitigate.csv")
        haar = manifest["results"]["haar_mean_exact"]
        assert len(haar) == len(rows)
        assert max(haar) - min(haar) <= 1e-10 * min(haar)
        assert haar == pytest.approx([1.44523e-5] * len(haar), rel=1e-5)
        # the README: "its rows are flat at 1.4409e-5", and all tie for the argmin
        assert {f"{row['mean_infidelity']:.4e}" for row in rows} == {"1.4409e-05"}
        assert manifest["results"]["argmin_B0"] == 0.4


# ------------------------------------------------- numbers the README quotes


def edges(window) -> list[str]:
    return [f"{b:.4f}" for b in window]


@pytest.fixture(scope="module")
def geometries(fig3a_geom, fig3b_geom):
    return {"fig3a": fig3a_geom, "fig3b": fig3b_geom}


@pytest.fixture(scope="module")
def windows(geometries):
    """The initialization windows the README quotes, keyed by (preset, n)."""
    sizes = [("fig3a", n) for n in (256, 512, 1024, 2048, 4096)] + [("fig3b", 1024)]
    return {(preset, n): initialization_window(geometries[preset], Discretization(n))
            for preset, n in sizes}


@pytest.mark.parametrize("preset, expected", [("fig3a", ["0.3695", "0.9867"]),
                                              ("fig3b", ["0.2148", "0.5109"])])
def test_window_edges(windows, preset, expected):
    assert edges(windows[preset, 1024]) == expected


def test_upper_edge_moves_with_the_grid(windows):
    upper = {256: "0.9789", 512: "0.9844", 1024: "0.9867", 2048: "0.9883", 4096: "0.9891"}
    assert {n: edges(windows["fig3a", n]) for n in upper} == {
        n: ["0.3695", b] for n, b in upper.items()}


@pytest.mark.parametrize("preset, upper_weights", [("fig3a", ["0.598", "0.601"]),
                                                   ("fig3b", ["0.595", "0.603"])])
def test_edge_states(geometries, disc1024, windows, preset, upper_weights):
    # 2 mT either side of each edge at m = 0: at the lower edge level 1,
    # already past the weight cut, drops below the barrier; at the upper
    # edge level 2, far below the barrier, crosses the cut
    def level(B, index):
        spectrum = solve_sector(PotentialParams(geom=geometries[preset], B=B), disc1024)
        state = spectrum.states[index]
        return state, state.energy < spectrum.barrier_energy

    b_min, b_max = windows[preset, 1024]
    (before, low), (after, under) = (level(b_min + d, 1) for d in (-2e-3, 2e-3))
    assert (low, under, before.bound, after.bound) == (False, True, False, True)
    assert {f"{s.localization:.2f}" for s in (before, after)} <= {"0.63", "0.64"}
    (before, low), (after, under) = (level(b_max + d, 2) for d in (-2e-3, 2e-3))
    assert (low, under, before.bound, after.bound) == (True, True, False, True)
    assert [f"{s.localization:.3f}" for s in (before, after)] == upper_weights


def test_zero_field_ground_state_weight(fig3a_geom, disc1024):
    spectrum = solve_sector(PotentialParams(geom=fig3a_geom, B=0.0), disc1024)
    assert f"{spectrum.states[0].localization:.2f}" == "0.77"


def test_zero_point_spread(checks, study):
    [out] = artifacts(study, "fig5 qubit-params")
    assert f"{checks.load_json(out / 'qubit_params.json')['zero_point_spread']:.5f}" == "0.66667"


def test_three_level_pulse_falls_short(checks, study):
    # the ladder's coupling is 0.8400 of the two-level one, so its default
    # pi/(2 Omega) pulse rotates by 0.84 pi/2, not pi/2
    [out] = artifacts(study, "fig5 evolve --three-level")
    end = checks.load_csv(out / "trajectory.csv")[-1]
    assert [f"{end['p1']:.4f}", f"{end['z']:.4f}"] == ["0.3754", "0.2491"]
    predicted = [math.sin(0.84 * math.pi / 4) ** 2, math.cos(0.84 * math.pi / 2)]
    assert [f"{v:.4f}" for v in predicted] == ["0.3757", "0.2487"]


def test_closed_form_quadratic_gap(fig3a_geom):
    # the routes' quadratic coefficients c2 = beta^2 / (2 m*) differ by a
    # field-independent -(R + 2r) hbar^2 / (4 m* r (R - r)^2)
    r, R, mass = fig3a_geom.r_minor, fig3a_geom.R_major, fig3a_geom.effective_mass
    gap = -(R + 2 * r) * HBAR**2 / (4 * mass * r * (R - r) ** 2)
    numerical = coefficients_numerical(fig3a_geom, 0.0).beta_sq / (2 * mass)
    closed = coefficients_closed_form(fig3a_geom, 0.0).beta_sq / (2 * mass)
    assert closed - numerical == pytest.approx(gap, rel=1e-9)
    assert f"{-gap / numerical:.0%}" == "93%"


def solver_qubit(geom, B, n=1024):
    """The m = 0 sector's gap (E1 - E0)/hbar and dipole element
    e r |<chi_0|sin theta|chi_1>| from a k = 4 solve on n points."""
    disc = Discretization(n)
    ground, excited = solve_sector(PotentialParams(geom=geom, B=B), disc, k=4).states[:2]
    gap = UnitSystem.for_geometry(geom).from_internal(excited.energy - ground.energy) / HBAR
    element = abs(np.dot(ground.wavefunction * np.sin(disc.theta), excited.wavefunction))
    return gap, E_CHARGE * geom.r_minor * element * disc.spacing


@pytest.mark.parametrize("preset, B, omega, gap, ratio, mu", [
    ("fig3a", 0.45, "3.544e+11", "2.413e+11", "0.681", "+5.3%"),
    ("fig3a", 1.0, "4.830e+11", "4.263e+11", "0.883", "+7.7%"),
    ("fig3b", 0.3, "2.809e+11", "2.520e+11", "0.897", "+16.5%")])
def test_reduction_against_its_spectrum(geometries, preset, B, omega, gap, ratio, mu):
    qubit = qubit_for(geometries[preset], B)
    spectral_gap, dipole = solver_qubit(geometries[preset], B)
    assert [f"{qubit.omega:.3e}", f"{spectral_gap:.3e}", f"{spectral_gap / qubit.omega:.3f}",
            f"{qubit.mu_dipole / dipole - 1:+.1%}"] == [omega, gap, ratio, mu]


def test_reduction_gap_ratio_is_converged(fig3a_geom):
    # fig5's ratio is the model's, not the grid's: 0.6809 at n = 1024 and 4096
    omega = qubit_for(fig3a_geom, 0.45).omega
    assert {f"{solver_qubit(fig3a_geom, 0.45, n)[0] / omega:.4f}" for n in (1024, 4096)} == {"0.6809"}


SIGMA = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
DB_LINES = [*readme_commands("fidelity --scan dB"), *readme_commands("mitigate --delta-b 0.005")]


def rotation(omega, delta, t):
    """The SU(2) part of an RWA segment at phase 0, Rabi rate omega and
    detuning delta: a rotation by hypot(omega, delta) t about (omega, 0, -delta)."""
    rate = math.hypot(omega, delta)
    axis = np.einsum("k,kij->ij", np.array([omega, 0.0, -delta]) / rate, SIGMA)
    return math.cos(rate * t / 2) * np.eye(2) - 1j * math.sin(rate * t / 2) * axis


def error_rows(checks, study, line):
    """(v, Monte-Carlo mean, haar_mean_exact) per row of a README dB line.

    Under frozen calibration the tilted Hadamard at B0 (1 + dB) stays one
    RWA rotation, at Rabi rate Omega mu(B0 (1 + dB)) / mu(B0) and detuning
    -Omega + omega(B0 (1 + dB)) - omega(B0), with omega and mu from the
    reduction.  v is the real Pauli vector of M = U_ideal^dag U_pert =
    m0 I - i v . sigma in SU(2), built here without dynamics, control or
    errors.  An input of Bloch vector n then has infidelity
    |v|^2 - (v . n)^2, and 1 - (|Tr M|^2 + Tr M^dag M) / 6 = (2/3) |v|^2,
    a form that keeps its relative accuracy as M nears the identity.
    """
    args = build_parser().parse_args(shlex.split(line))
    out = study[line][1]
    manifest = checks.load_json(out / f"{args.command}.csv.manifest.json")
    config = manifest["config"]
    geom = TorusGeometry(config["r_minor"], config["R_major"], config["mass_ratio"])
    ideal = qubit_for(geom, config["B"], config["source"])
    if args.command == "mitigate":  # a drive sweep at fixed dB, no drive error
        assert (args.sweep, args.delta_e) == ("E0", 0.0)
    rows = checks.load_csv(out / f"{args.command}.csv")
    assert len(rows) == len(manifest["results"]["haar_mean_exact"]) > 1
    for row, haar in zip(rows, manifest["results"]["haar_mean_exact"]):
        dB, E0 = (row["delta"], config["E0"]) if args.command == "fidelity" else (args.delta_b,
                                                                                 row["E0"])
        pert = qubit_for(geom, config["B"] * (1 + dB), config["source"])
        omega = ideal.mu_dipole * E0 / HBAR
        t = math.pi / (math.sqrt(2) * omega)
        m = rotation(omega, -omega, t).conj().T @ rotation(
            omega * pert.mu_dipole / ideal.mu_dipole, -omega + pert.omega - ideal.omega, t)
        v = (0.5j * np.einsum("kij,ji->k", SIGMA, m)).real
        yield v, row["mean_infidelity"], haar


@pytest.mark.parametrize("line", DB_LINES)
def test_db_rows_are_the_closed_form(checks, study, line):
    # the dB scan and the mitigation rows, each at the exact Haar mean of
    # its one perturbed rotation; a zero row is M = I up to roundoff
    for v, _, haar in error_rows(checks, study, line):
        assert 2 / 3 * v @ v == pytest.approx(haar, rel=1e-8, abs=1e-15)


@pytest.mark.parametrize("line", DB_LINES)
def test_db_rows_within_five_design_sigmas(checks, study, line):
    # the per-sample infidelity is quadratic in n and its square quartic, so
    # the icosahedron gives their exact mean and standard deviation sigma
    samples = build_parser().parse_args(shlex.split(line)).samples
    for v, mean, haar in error_rows(checks, study, line):
        infidelity = v @ v - (ICOSAHEDRON @ v) ** 2
        assert infidelity.mean() == pytest.approx(2 / 3 * v @ v, rel=1e-10)
        if haar > 0.0:
            sigma = math.sqrt(np.var(infidelity))
            assert abs(mean - haar) <= 5 * sigma / math.sqrt(samples)


# ------------------------------------------------- the README's own text


def readme_section(title: str) -> str:
    return README.read_text(encoding="utf-8").split(f"\n## {title}\n")[1].split("\n## ")[0]


def readme_exit_examples(code: int) -> list[tuple[str, list[str]]]:
    """The backticked `torusqubit` invocations of the README's "Exit code
    CODE" list, without the program name, each with the `error:` lines its
    list item quotes after it and before the item's next invocation.  A
    LookupError when the list holds no invocation, so its test cannot pass
    on none."""
    text = README.read_text(encoding="utf-8").split(f"\nExit code {code} is ")[1]
    examples = []
    for item in text.split("\n\n")[0].split("\n- ")[1:]:  # the list ends at a blank line
        invocation = None
        for span in (" ".join(span.split()) for span in re.findall(r"`([^`]+)`", item)):
            if span.startswith("torusqubit "):
                invocation = (span.removeprefix("torusqubit "), [])
                examples.append(invocation)
            elif span.startswith("error: "):
                assert invocation is not None, f"{span!r} follows no invocation in its item"
                invocation[1].append(span)
    if not examples:
        raise LookupError(f"the README's exit code {code} list holds no invocation")
    return examples


@pytest.mark.parametrize("code, line, errors", [
    pytest.param(code, line, errors, id=line)
    for code in (2, 1) for line, errors in readme_exit_examples(code)])
def test_readme_exit_example(tmp_path, monkeypatch, capsys, code, line, errors):
    # run as written, in a directory of its own: `…` in a quoted line stands for any text
    [error] = errors or ["error: …"]
    pattern = ".*".join(map(re.escape, error.removeprefix("error: ").split("…")))
    monkeypatch.chdir(tmp_path)
    check_failure(main(shlex.split(line)), capsys.readouterr(), code, pattern, tmp_path)


def test_claims_name_existing_tests():
    # each test id in the Claims table is `file.py::name` or
    # `file.py::Class::name` under tests/, a function the file defines
    rows = [line for line in readme_section("Claims").splitlines() if line.startswith("| ")][1:]
    ids = [node for row in rows for node in re.findall(r"`([^`]+)`", row.split("|")[-2])]
    assert len(ids) >= len(rows)
    modules = {file: ast.parse((TESTS / file).read_text(encoding="utf-8"))
               for file in {node.split("::")[0] for node in ids}}
    for node in ids:
        file, *names = node.split("::")
        scope = modules[file]
        for name in names:
            scope = next((item for item in scope.body
                          if isinstance(item, (ast.ClassDef, ast.FunctionDef))
                          and item.name == name), None)
            assert scope is not None, node


def test_cli_text_matches_the_parser():
    parser = build_parser()
    options = [option for action in parser._actions for option in action.option_strings
               if option not in ("-h", "--help")]
    listed = re.search(r"Global options \(([^)]*)\)", readme_section("Command-line interface"))
    assert sorted(item.split()[0] for item in re.findall(r"`([^`]+)`", listed[1])) == sorted(options)
    [subcommands] = [action.choices for action in parser._actions if action.dest == "command"]
    assert {parser.parse_args(shlex.split(line)).command for line in COMMANDS} == set(subcommands)
