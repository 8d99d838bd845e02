import argparse
import csv
import dataclasses
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from torusqubit import cli, control, dynamics, errors, potential, spectral
from torusqubit.cli import main, parse_range, load_config, PRESETS, ConfigError
from torusqubit.model import MAX_DRIVE_CYCLES, TWO_PI
from torusqubit.reduction import rabi_frequency

from conftest import check_failure, check_success, readme_commands, run_cli


def source_env(**extra):
    """The environment of a fresh interpreter that imports this torusqubit."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
            **extra}


def openblas_dynamic_arch():
    """Whether numpy's BLAS is an OpenBLAS that picks its kernel at run time,
    so OPENBLAS_CORETYPE selects one."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return ("openblas" in blas.get("name", "").lower()
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


def modules_after(code, *packages):
    """Sorted names of the packages' modules (a package or any of its
    submodules) loaded once code has run in a fresh interpreter."""
    listing = ("print('loaded:', *sorted(m for m in sys.modules"
               f" if any(m == p or m.startswith(p + '.') for p in {packages!r})))")
    done = subprocess.run([sys.executable, "-c", f"{code}\nimport sys\n{listing}"],
                          env=source_env(), capture_output=True, text=True, check=True)
    return next(line for line in done.stdout.splitlines() if line.startswith("loaded:")).split()[1:]


# CLI lines run in turn in one fresh interpreter, after import torusqubit.cli
_RUNS_IN_TURN = """\
import json, sys
import torusqubit.cli

def loaded():
    return {{m for m in sys.modules if any(m == p or m.startswith(p + ".") for p in {packages!r})}}

runs = []
for argv in {argvs!r}:
    before = loaded()
    try:
        code = torusqubit.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    runs.append((code, sorted(loaded() - before)))
print("runs:", json.dumps(runs))
"""


def runs_in_one_interpreter(argvs, packages, out_dir):
    """{tuple(argv): (exit code, sorted names of the packages' modules that
    main(argv) newly loaded)}, each argv run in turn in one fresh interpreter
    with its own subdirectory of out_dir as --output-dir; one interpreter
    start in place of one per line."""
    with_dirs = [[*argv, "--output-dir", str(out_dir / str(k))] for k, argv in enumerate(argvs)]
    done = subprocess.run(
        [sys.executable, "-c", _RUNS_IN_TURN.format(argvs=with_dirs, packages=packages)],
        env=source_env(), capture_output=True, text=True, check=True)
    runs = json.loads(next(line for line in done.stdout.splitlines()
                           if line.startswith("runs:")).removeprefix("runs:"))
    return {tuple(argv): (code, modules) for argv, (code, modules) in zip(argvs, runs)}


# runs that need no array, with their exit codes
SCALAR_RUNS = [
    (["--preset", "fig5", "qubit-params"], 0),
    (["--preset", "fig3b", "--B", "0", "qubit-params"], 0),  # the warning path
    (["--help"], 0),
    (["spectrum", "--help"], 0),
    (["--n-points", "10", "spectrum"], 2),
    (["--preset", "fig9", "fidelity"], 2),
]


@pytest.fixture(scope="module")
def scalar_runs(tmp_path_factory):
    return runs_in_one_interpreter([args for args, _ in SCALAR_RUNS], ("numpy",),
                                   tmp_path_factory.mktemp("scalar"))


# runs whose --output-dir lies under a file, so no artifact can be written
UNWRITABLE_OUTPUT_RUNS = [
    ["--preset", "fig5", "qubit-params"],
    ["--preset", "fig3a", "--n-points", "256", "window"],
    ["--preset", "fig5", "gate"],
    ["--preset", "fig5", "mitigate", "--e0-range", "100:1000:2", "--samples", "10"],
]


def unwritable_output_id(args):
    return args[-1] if args[-1].isalpha() else args[2]


def read_csv(path):
    with open(path) as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    header, data = rows[0], rows[1:]
    return header, data


class TestConfigHandling:
    def test_presets_defined(self):
        assert PRESETS["fig3a"]["r_minor"] == pytest.approx(3.5e-8)
        assert PRESETS["fig3b"]["R_major"] == pytest.approx(3.6e-7)
        assert PRESETS["fig5"]["B"] == 0.45
        assert PRESETS["fig5"]["E0"] == 100.0

    def test_unknown_config_key_rejected(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"preset": "fig5", "nonsense": 1}))
        run_cli(["--config", str(config), "potential"], tmp_path, 2,
                r"--config .*: unknown config keys: \['nonsense'\]")

    def test_wrong_types_in_config_file_all_listed(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"preset": "fig5", "n_points": "many", "B": "x"}))
        run_cli(["--config", str(config), "potential"], tmp_path, 2,
                r"invalid configuration: --n-points, --stencil-order: [^;]*; --B, --E0: [^;]*")

    @pytest.mark.parametrize("content, named", [
        (b"5", "--config"),
        (b"\xff\xfe{}", "--config"),
        (b"{", "--config"),
        (b'{"preset": ["fig5"]}', "--preset: unknown preset"),
        (b'{"nonsense": 1}', "--config"),
        (b'{"n_points": 1024.0}', "--n-points, --stencil-order: n_points must be a non-negative integer"),
        (b'{"stencil_order": true}', "--n-points, --stencil-order: stencil_order must be"),
        (b'{"seed": 1.5}', "--seed: seed must be a non-negative integer"),
        (b'{"B": true}', "--B, --E0: B must be a number, got True"),
        (b'{"loc_threshold": "0.5"}', "--loc-threshold: loc_threshold must be a number"),
        (b'{"source": "foo"}', "--source: source must be 'numerical_taylor' or 'closed_form'"),
        (b'{"source": 3}', "--source: source must be a string"),
        pytest.param(b'{"B": 1' + b"0" * 400 + b"}", "--B, --E0: int too large to convert to float",
                     id="B-past-the-double-range"),
    ])
    @pytest.mark.parametrize("command", ["potential", "spectrum", "qubit-params"])
    def test_malformed_config_file_is_one_line(self, tmp_path, command, content, named):
        config = tmp_path / "config.json"
        config.write_bytes(content)
        run_cli(["--config", str(config), command], tmp_path, 2, f".*{re.escape(named)}.*")

    @pytest.mark.parametrize("args", [["-h"], ["spectrum", "-h"]])
    def test_help_exits_zero(self, capsys, args):
        with pytest.raises(SystemExit) as exited:
            main(args)
        assert exited.value.code == 0
        assert capsys.readouterr().out.startswith("usage: torusqubit")

    @pytest.mark.parametrize("command", ["gate", "fidelity", "mitigate"])
    def test_gate_commands_share_one_vocabulary(self, capsys, command):
        # one --gate and one --mode declaration, with control.Gate's vocabulary in each help
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "--gate GATE hadamard | phase:ETA | prep:THETA,ETA" in text
        assert "--mode {rwa,labframe}" in text

    @pytest.mark.parametrize("key, value, named", [
        ("preset", "fig9", "--preset: unknown preset 'fig9'"),
        ("source", "foo", "--source: source must be 'numerical_taylor' or 'closed_form'"),
        ("stencil_order", 3, "--n-points, --stencil-order: stencil_order must be 2 or 4"),
    ])
    def test_flag_and_file_share_one_check(self, tmp_path, key, value, named):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        flag = "--" + key.replace("_", "-")
        for args in ([flag, str(value), "potential"], ["--config", str(config), "potential"]):
            run_cli(args, tmp_path, 2, f".*{re.escape(named)}.*")

    def test_unknown_preset_without_a_file_names_only_the_flag(self):
        # a library caller skips the parser, whose --preset is any string
        args = argparse.Namespace(config=None, preset="fig9")
        with pytest.raises(ConfigError, match=r"^--preset: unknown preset 'fig9'; choose from"):
            load_config(args)

    def test_integer_spelling_of_a_real_key_writes_the_same_bytes(self, tmp_path):
        # a real key is a float once loaded, so the data file and manifest
        # depend on its value, not on how the JSON spelled it
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"preset": "fig3a", "B": 0, "n_points": 256}))
        file_out, flag_out = (
            run_cli([*args, "spectrum", "--levels", "2"], tmp_path).dir
            for args in (["--config", str(config)],
                         ["--preset", "fig3a", "--B", "0", "--n-points", "256"]))
        data = [(out / "spectrum.csv").read_bytes() for out in (file_out, flag_out)]
        assert data[0] == data[1] and data[0].splitlines()[2].startswith(b"0.0,0,0,")
        manifests = [json.loads((out / "spectrum.csv.manifest.json").read_text())
                     for out in (file_out, flag_out)]
        for manifest in manifests:
            del manifest["created"]
        assert manifests[0] == manifests[1] and manifests[0]["config"]["B"] == 0.0
        assert isinstance(manifests[0]["config"]["B"], float)

    def test_config_file_and_flag_override(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"preset": "fig5", "E0": 200.0}))

        class Args:
            preset = None
            r = None
            R = None
            mass_ratio = None
            B = None
            E0 = None
            n_points = None
            stencil_order = None
            seed = None
            source = None
            loc_threshold = None

        args = Args()
        args.config = str(config)
        resolved = load_config(args)
        assert resolved.B == 0.45  # from preset
        assert resolved.E0 == 200.0  # file overrides preset
        args.E0 = 300.0
        assert load_config(args).E0 == 300.0  # flag overrides file

    def test_parse_range(self):
        np.testing.assert_allclose(parse_range("0:1:5"), [0, 0.25, 0.5, 0.75, 1.0])
        np.testing.assert_allclose(parse_range("1:100:3", "log"), [1.0, 10.0, 100.0])
        with pytest.raises(ConfigError):
            parse_range("0:1")
        with pytest.raises(ConfigError):
            parse_range("0:1:1")
        for spec in ("nan:1:3", "0:inf:3", "-inf:0:3"):
            with pytest.raises(ConfigError, match="finite"):
                parse_range(spec)
        with pytest.raises(ConfigError, match="--e0-range"):
            parse_range("0:100:3", "log", arg="--e0-range")
        np.testing.assert_array_equal(parse_range("1:0:3", order="non-negative and monotone"),
                                      [1.0, 0.5, 0.0])

    @pytest.mark.parametrize("args, layer, patch", [
        (["--n-points", "256", "sweep-b", "--b-range", "0.4:0.5:2"], spectral, "sweep_field"),
        (["evolve"], dynamics, "trajectory"),
    ])
    def test_non_finite_csv_value_writes_no_artifact(self, tmp_path, monkeypatch, args, layer,
                                                     patch):
        # one NaN in one row of the data file: the CSV writer refuses it, as strict JSON does,
        # naming its column and, unless the NaN is there, the row's first field
        error = {"sweep_field": "CSV column localization must be finite at B=0.5, got nan",
                 "trajectory": "CSV column t must be finite, got nan"}[patch]
        computed = getattr(layer, patch)

        def poisoned(*args, **kwargs):
            result = computed(*args, **kwargs)
            if patch == "trajectory":
                times, amplitudes = result
                return np.where(np.arange(times.size) == 1, np.nan, times), amplitudes
            state = dataclasses.replace(result[1].states[0], localization=math.nan)
            return [result[0], dataclasses.replace(result[1], states=(state,))]

        monkeypatch.setattr(layer, patch, poisoned)
        run_cli(["--preset", "fig5", *args], tmp_path, 1, re.escape(error))

    @pytest.mark.skipif(not openblas_dynamic_arch(),
                        reason="OPENBLAS_CORETYPE selects a kernel only in a DYNAMIC_ARCH OpenBLAS")
    def test_non_unitary_long_drive_on_an_avx2_kernel(self, tmp_path):
        # the squaring's roundoff differs by kernel; on Haswell it used to
        # overflow to nan before the guard looked at the product
        done = subprocess.run(
            [sys.executable, "-m", "torusqubit.cli", "--preset", "fig5", "evolve",
             "--three-level", "--duration", "5e7", "--output-dir", str(tmp_path / "out")],
            env=source_env(OPENBLAS_CORETYPE="Haswell"), capture_output=True, text=True)
        check_failure(done.returncode, done.stdout, done.stderr, 1,
                      r"propagator departs from unitarity by (?!nan)\S+ over \S+ drive periods: "
                      r"the per-period roundoff has compounded; shorten the duration", tmp_path)

    @pytest.mark.parametrize("message, expected", [
        ("Unable to allocate 7.45 GiB", "out of memory: Unable to allocate 7.45 GiB"),
        ("", "out of memory"),
    ])
    def test_memory_error_is_one_line_without_artifact(self, tmp_path, monkeypatch, message,
                                                       expected):
        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(potential, "internal_terms", exhausted)
        run_cli(["--preset", "fig3a", "potential"], tmp_path, 1, re.escape(expected))

    @pytest.mark.parametrize("args", UNWRITABLE_OUTPUT_RUNS, ids=unwritable_output_id)
    def test_unwritable_output_prints_no_result(self, tmp_path, capsys, args):
        # a summary line is a result, printed only once the artifacts exist
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main([*args, "--output-dir", str(blocker / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["file"]

    @pytest.mark.parametrize("args", UNWRITABLE_OUTPUT_RUNS, ids=unwritable_output_id)
    def test_unwritable_output_names_its_option(self, tmp_path, capsys, args):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main([*args, "--output-dir", str(blocker / "out")]) == 2
        [line] = capsys.readouterr().err.strip().splitlines()
        assert line.startswith("error: --output-dir: ") and str(blocker / "out") in line

    @pytest.mark.parametrize("make, reason", [
        (lambda path: None, "No such file or directory"),
        (Path.mkdir, "Is a directory"),
    ], ids=["missing", "directory"])
    def test_unreadable_config_names_its_option(self, tmp_path, make, reason):
        config = tmp_path / "config.json"
        make(config)
        run_cli(["--config", str(config), "qubit-params"], tmp_path, 2,
                re.escape(f"--config {config}: {reason}"))

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_range_bound_is_inclusive(self, tmp_path, sign):
        # errors.MAX_RELATIVE_ERROR = 0.1 is accepted, the next double past it is not
        past = repr(math.nextafter(0.1, 1.0))
        for edge, exit_code in (("0.1", 0), (past, 2)):
            spec = f"{sign}{edge}:0:2" if sign else f"0:{edge}:2"
            run_cli(["--preset", "fig5", "fidelity", f"--range={spec}", "--samples", "10"],
                    tmp_path, exit_code, "--range" + RELATIVE + re.escape(f"{sign}{past}"))

    def test_negative_value_with_exponent_is_a_value(self, tmp_path):
        # argparse's own pattern has no exponent, so it read -5e-3 as an option
        common = ["--preset", "fig5", "mitigate", "--samples", "50"]
        spaced, joined = (run_cli([*common, *value], tmp_path).dir / "mitigate.csv"
                          for value in (["--delta-b", "-5e-3"], ["--delta-b=-5e-3"]))
        assert spaced.read_bytes() == joined.read_bytes()

    @pytest.mark.parametrize("args, dest, value", [
        (["fidelity", "--range", "-0.01:0.01:5"], "range", "-0.01:0.01:5"),
        (["mitigate", "--e0-range", "-1:5:3"], "e0_range", "-1:5:3"),
        (["sweep-b", "--b-range", "-1:1:3"], "b_range", "-1:1:3"),
        (["mitigate", "--delta-b", "-5e-3"], "delta_b", -5e-3),
        (["mitigate", "--delta-b", "-.005"], "delta_b", -0.005),
    ])
    def test_negative_number_start_is_a_value(self, args, dest, value):
        # argparse's own pattern reads only a plain negative number as a value
        assert getattr(cli.build_parser().parse_args(args), dest) == value

    @pytest.mark.parametrize("args, message", [
        (["mitigate", "-x"], "unrecognized arguments: -x"),
        (["mitigate", "--delta-b", "-x"], "--delta-b: expected one argument"),
    ])
    def test_dash_letter_is_an_option_name(self, args, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            cli.build_parser().parse_args(args)

    def test_negative_range_start_runs(self, tmp_path):
        out = run_cli(["--preset", "fig5", "fidelity", "--range", "-0.01:0.01:5",
                       "--samples", "50"], tmp_path).dir
        _, data = read_csv(out / "fidelity.csv")
        assert [float(row[0]) for row in data] == np.linspace(-0.01, 0.01, 5).tolist()

    @pytest.mark.parametrize("args", [
        ["--preset", "fig5", "evolve", "--rabi", "-1e9", "--duration", "1e-9"],
        ["evolve", "--rabi", "1e9", "--duration", "1e9"],
    ])
    def test_rwa_evolve_builds_no_lab_frame_drive(self, tmp_path, args):
        # a negative Rabi rate is a phase flip, and the RWA rotation has no drive periods
        out = run_cli([*args, "--samples", "5"], tmp_path).dir
        header, data = read_csv(out / "trajectory.csv")
        assert header == ["t", "x", "y", "z", "p0", "p1"] and len(data) == 5

    @settings(max_examples=40, deadline=None)
    @example(detuning=5e10, ulps=0)
    @given(detuning=st.floats(-1e11, 1e11), ulps=st.integers(-4, 4))
    def test_drive_length_limit_is_the_dynamics_rule(self, tmp_path_factory, detuning, ulps):
        # within a few ulps of 2^63 drive periods, the lab-frame propagation
        # raises if and only if the CLI rejects the duration
        config = cli.RunConfig(**PRESETS["fig5"])
        qubit = config.qubit(config.B)
        pulse = dynamics.PulseSpec(rabi_frequency(qubit.mu_dipole, config.E0), detuning, 0.0, 0.0)
        drive = dynamics.drive_field(pulse, qubit)
        t = MAX_DRIVE_CYCLES * (TWO_PI / abs(drive.omega_rf))
        for _ in range(abs(ulps)):
            t = math.nextafter(t, math.copysign(math.inf, ulps))

        def integrate(*args):  # every check has passed; spare the integration
            raise RuntimeError("integrated")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dynamics, "solve_ivp", integrate)
            try:
                dynamics.ladder_trajectory(qubit, drive, t, 2)
            except ValueError:
                raised = True
            except RuntimeError:
                raised = False
            run_cli(["--preset", "fig5", "evolve", "--three-level", "--detuning", repr(detuning),
                     "--duration", repr(t), "--samples", "2"], tmp_path_factory.mktemp("out"),
                    *((2, "--duration: " + PERIODS + ".*") if raised else (1, "integrated")))


# lab-frame gates whose propagators drift from unitarity enough to carry |Tr(G^dagger U)| / 2
# past 1 (by 8.3e-6 and 1.0e-10)
DRIFTING_GATES = ["--preset fig5 --B 1e6 gate --mode labframe",
                  "--preset fig5 --r 1e-9 --R 2e-9 gate --mode labframe"]

# extreme values of each kind of input that the program computes with: the smallest and
# large fields, Rabi rates that under- and overflow, a torus whose hole all but closes,
# extreme masses, every level of the smallest grid and a huge seed; the extremes it
# refuses are rows of FAILURES
EDGE_INPUTS = [
    "--B 5e-324 spectrum", "--B 5e-324 qubit-params", "--B 5e-324 potential", "--B 5e-324 window",
    "--B 1e80 qubit-params", "--B 1e80 potential", "--B 1e80 evolve",
    "--preset fig5 --E0 1e-30 qubit-params", "--preset fig5 --E0 1e-30 gate",
    "--preset fig5 --E0 1e-30 evolve",
    "--preset fig5 --E0 1e300 gate", "--preset fig5 --E0 1e300 evolve",
    "--preset fig5 --E0 1e300 qubit-params", "--preset fig5 --E0 1e300 fidelity --samples 10",
    "--r 1 --R 1.0000001 qubit-params", "--r 1 --R 1.0000001 potential",
    "--r 1 --R 1.0000001 gate",
    "--mass-ratio 1e-30 spectrum", "--mass-ratio 1e-30 qubit-params",
    "--mass-ratio 1e30 spectrum", "--mass-ratio 1e30 qubit-params", "--mass-ratio 1e30 potential",
    "--n-points 64 --stencil-order 4 spectrum --levels 64",
    "--n-points 64 --stencil-order 4 --B 1e80 spectrum --levels 64",
    "--preset fig5 --seed 99999999999999999999999 fidelity",
    *DRIFTING_GATES,
]


class Failure(NamedTuple):
    line: str  # the arguments, as shlex.split reads them
    code: int  # the exit code
    pattern: str  # a regex the one stderr line matches in full after "error: "
    option: bool = False  # an option error, raised before the subcommand loads a layer or numpy


OPTION = True
GEOMETRY = r"invalid configuration: --r, --R, --mass-ratio: "
AMPLITUDE = r"drive amplitude must be finite and positive, got "
PERIODS = r"t must span fewer than 2\^63 drive periods, got "
DEFAULT_DURATION = (r"--rabi \(or --E0\), --detuning: the default duration pi/\(2 Omega\): "
                    + PERIODS)
BASIS_CAP = (r"Fourier basis reached its cap of 599 modes with Ritz tail weight \d\.\d{3}e-01; "
             r"residual \d\.\d{3}e\+")
NON_FINITE = r"potential evaluated to non-finite values at B="
STEP_CAP = r"step doubling reached its cap of 8192 Magnus steps with successive results "
TOL = r"--tol must be finite and in \[1e-12, 1e-06\], got "
RELATIVE = r" must be finite and in \[-0\.1, 0\.1\], got "
INCREASING = r" must be positive and increasing, got "
MONOTONE = r"--b-range must be non-negative and monotone, got "

# every input that must fail, each held to the README's contract by check_failure
FAILURES = [Failure(*row) for row in [
    # the parser: a value it cannot read, and a missing or unknown subcommand
    ("--n-points abc potential", 2, r"--n-points: invalid int value: 'abc'", OPTION),
    ("spectrum --levels x", 2, r"--levels: invalid int value: 'x'", OPTION),
    ("gate --mode foo", 2, r"--mode: invalid choice: 'foo' \(choose from 'rwa', 'labframe'\)",
     OPTION),
    ("", 2, r"the following arguments are required: command", OPTION),
    ("foo", 2, r"command: invalid choice: 'foo' \(choose from 'potential', 'spectrum', 'sweep-b', "
     r"'window', 'qubit-params', 'evolve', 'gate', 'fidelity', 'mitigate'\)", OPTION),
    # the configuration: each problem after the options it names, all on the one line
    ("--r 9e-8 --R 3.5e-8 potential", 2,
     GEOMETRY + r"need 0 < r_minor < R_major, got r=9e-08, R=3\.5e-08", OPTION),
    ("--r 9e-8 --R 3.5e-8 --n-points 10 potential", 2,
     GEOMETRY + r"need 0 < r_minor < R_major, got r=9e-08, R=3\.5e-08; "
     r"--n-points, --stencil-order: n_points must be >= 64, got 10", OPTION),
    ("--r -3.5e-8 potential", 2, GEOMETRY + r"r_minor must be finite and positive, got -3\.5e-08",
     OPTION),
    ("--preset fig5 --mass-ratio nan qubit-params", 2,
     GEOMETRY + r"effective_mass_ratio must be finite and positive, got nan", OPTION),
    # r^2, m* r^2 or the energy scale would underflow or overflow
    ("--mass-ratio 1e-300 potential", 2,
     GEOMETRY + r"m\* r_minor\^2 must be finite and >= 2\.22507e-308, got 0\.0", OPTION),
    ("--r 1e-150 --R 2e-150 potential", 2,
     GEOMETRY + r"m\* r_minor\^2 must be finite and >= 2\.22507e-308, got 0\.0", OPTION),
    ("--r 1e150 --R 2e150 potential", 2,
     GEOMETRY + r"energy scale must be finite and >= 2\.22507e-308, got 0\.0", OPTION),
    ("--r 1e160 --R 2e160 potential", 2,
     GEOMETRY + r"r_minor\^2 must be finite and >= 2\.22507e-308, got inf", OPTION),
    ("--r 1e300 --R 1e301 spectrum", 2,
     GEOMETRY + r"r_minor\^2 must be finite and >= 2\.22507e-308, got inf", OPTION),
    ("--preset fig5 --E0 nan qubit-params", 2,
     r"invalid configuration: --B, --E0: E0 must be finite and >= 0, got nan", OPTION),
    ("--preset fig5 --B nan qubit-params", 2,
     r"invalid configuration: --B, --E0: B must be finite and >= 0, got nan", OPTION),
    ("--preset fig5 --seed -1 fidelity", 2,
     r"invalid configuration: --seed: seed must be a non-negative integer, got -1", OPTION),
    *[(f"--preset fig5 --loc-threshold {value} {command}", 2, r"invalid configuration: "
       rf"--loc-threshold: loc_threshold must lie in \(0, 1\), got {shown}", OPTION)
      for command in ("spectrum", "qubit-params")
      for value, shown in (("2", r"2\.0"), ("nan", "nan"))],
    # a subcommand option outside its bounds
    ("--preset fig5 potential --E-static nan", 2, r"--E-static must be finite, got nan", OPTION),
    ("--preset fig5 potential --E-static inf", 2, r"--E-static must be finite, got inf", OPTION),
    ("--preset fig5 spectrum --levels 0", 2, r"--levels must be in \[1, 1024\], got 0", OPTION),
    ("--preset fig5 spectrum --levels -3", 2, r"--levels must be in \[1, 1024\], got -3", OPTION),
    ("--preset fig5 --n-points 64 spectrum --levels 65", 2,
     r"--levels must be in \[1, 64\], got 65", OPTION),
    ("--preset fig5 sweep-b --levels 0", 2, r"--levels must be in \[1, 1024\], got 0", OPTION),
    ("--preset fig5 sweep-b --b-range 0:0.1:2 --levels 0", 2,
     r"--levels must be in \[1, 1024\], got 0", OPTION),
    ("--preset fig5 sweep-b --b-range 0:1", 2, r"--b-range must look like a:b:n, got '0:1'",
     OPTION),
    ("--preset fig5 sweep-b --b-range -1:1:3", 2, MONOTONE + r"'-1:1:3'", OPTION),
    ("--preset fig5 sweep-b --b-range=-1:1:3", 2, MONOTONE + r"'-1:1:3'", OPTION),
    ("--preset fig5 sweep-b --b-range 1:1:3", 2, MONOTONE + r"'1:1:3'", OPTION),
    ("--preset fig5 sweep-b --m-list 0,a", 2,
     r"--m-list must be comma-separated integers, got '0,a'", OPTION),
    ("--preset fig5 window --scan-max -1", 2, r"--scan-max must be finite and positive, got -1\.0",
     OPTION),
    ("--preset fig5 window --scan-max nan", 2, r"--scan-max must be finite and positive, got nan",
     OPTION),
    ("--preset fig5 evolve --samples 0", 2, r"--samples must be >= 2, got 0", OPTION),
    ("--preset fig5 evolve --samples 1", 2, r"--samples must be >= 2, got 1", OPTION),
    ("--preset fig5 evolve --rabi nan", 2, r"--rabi must be finite, got nan", OPTION),
    ("--preset fig5 evolve --three-level --rabi=-1e9 --duration=1e-9", 2,
     r"--rabi \(with --three-level\) must be finite and >= 0, got -1000000000\.0", OPTION),
    ("--preset fig5 evolve --detuning inf", 2, r"--detuning must be finite, got inf", OPTION),
    ("--preset fig5 evolve --phase nan", 2, r"--phase must be finite, got nan", OPTION),
    ("--preset fig5 evolve --duration nan", 2, r"--duration must be finite and >= 0, got nan",
     OPTION),
    ("--preset fig5 evolve --duration=-1e-9", 2, r"--duration must be finite and >= 0, got -1e-09",
     OPTION),
    ("--preset fig5 gate --tol 1", 2, TOL + r"1\.0", OPTION),
    ("--preset fig5 gate --tol nan", 2, TOL + r"nan", OPTION),
    ("--preset fig5 gate --tol 5 --leakage", 2, TOL + r"5\.0", OPTION),
    ("--preset fig5 gate --mode labframe --tol 1e-3", 2, TOL + r"0\.001", OPTION),
    ("--preset fig5 fidelity --samples 0", 2, r"--samples must be >= 1, got 0", OPTION),
    ("--preset fig5 fidelity --range 0:0.5:3", 2, "--range" + RELATIVE + r"0\.5", OPTION),
    ("--preset fig5 fidelity --range=-0.2:0:3", 2, "--range" + RELATIVE + r"-0\.2", OPTION),
    ("--preset fig5 mitigate --samples 0", 2, r"--samples must be >= 1, got 0", OPTION),
    ("--preset fig5 mitigate --delta-b 0.5", 2, "--delta-b" + RELATIVE + r"0\.5", OPTION),
    ("--preset fig5 mitigate --delta-e nan", 2, "--delta-e" + RELATIVE + r"nan", OPTION),
    ("--preset fig5 mitigate --e0-range 1:2", 2, r"--e0-range must look like a:b:n, got '1:2'",
     OPTION),
    ("--preset fig5 mitigate --e0-range -1:5:3", 2,
     r"--e0-range with log spacing needs positive endpoints, got '-1:5:3'", OPTION),
    ("--preset fig5 mitigate --spacing log --e0-range 0:100:3", 2,
     r"--e0-range with log spacing needs positive endpoints, got '0:100:3'", OPTION),
    ("--preset fig5 mitigate --spacing linear --e0-range 0:10:3", 2,
     "--e0-range" + INCREASING + r"'0:10:3'", OPTION),
    ("--preset fig5 mitigate --spacing linear --e0-range 0:100:3", 2,
     "--e0-range" + INCREASING + r"'0:100:3'", OPTION),
    ("--preset fig5 mitigate --sweep B0 --b0-range 0:1:3", 2,
     "--b0-range" + INCREASING + r"'0:1:3'", OPTION),
    ("--preset fig5 mitigate --sweep B0 --b0-range 0:0.9:6", 2,
     "--b0-range" + INCREASING + r"'0:0\.9:6'", OPTION),
    ("--preset fig5 mitigate --sweep B0 --b0-range 0.9:0.4:6", 2,
     "--b0-range" + INCREASING + r"'0\.9:0\.4:6'", OPTION),
    ("--preset fig5 --E0 0 mitigate --sweep B0", 2, r"--E0 must be finite and positive, got 0\.0",
     OPTION),
    # checks that need a layer: a grid, a gate angle, a Rabi rate, a rotation angle or a
    # drive length; endpoints a few ulps apart pass the endpoint rule and repeat grid values
    ("--preset fig5 sweep-b --b-range 0:5e-324:3", 2, MONOTONE + r"'0:5e-324:3'"),
    ("--preset fig5 mitigate --spacing linear --e0-range 1:1.0000000000000002:5", 2,
     "--e0-range" + INCREASING + r"'1:1\.0000000000000002:5'"),
    ("--preset fig5 gate --gate phase:abc", 2,
     r"--gate: must be hadamard, phase:ETA or prep:THETA,ETA, got 'phase:abc'"),
    ("--preset fig5 gate --gate prep:1.2", 2,
     r"--gate: must be hadamard, phase:ETA or prep:THETA,ETA, got 'prep:1\.2'"),
    ("--preset fig5 gate --gate phase:1e300", 2,
     r"--gate: phase:ETA needs ETA in \[0, 2 pi\), got 'phase:1e300'"),
    ("--preset fig5 fidelity --gate phase:-1", 2,
     r"--gate: phase:ETA needs ETA in \[0, 2 pi\), got 'phase:-1'"),
    ("--preset fig5 gate --gate prep:4,0", 2,
     r"--gate: prep:THETA,ETA needs THETA in \(0, pi\] and ETA in \[0, pi\], got 'prep:4,0'"),
    ("--preset fig5 --B 0 fidelity", 2, r"--B must be finite and positive, got 0\.0"),
    ("--preset fig5 --E0 0 fidelity", 2, r"--E0 must be finite and positive, got 0\.0"),
    ("--preset fig5 --E0 0 gate", 2, "--E0: " + AMPLITUDE + r"0\.0"),
    ("--preset fig5 --E0 0 gate --gate prep:1.2,0.7", 2, "--E0: " + AMPLITUDE + r"0\.0"),
    # a Rabi rate that underflows to 0 or overflows to inf, in a gate or at each point of a study
    ("--preset fig5 --E0 1e-300 gate", 2, "--E0: " + AMPLITUDE + r"0\.0"),
    ("--preset fig5 --E0 1e308 gate", 2, "--E0: " + AMPLITUDE + "inf"),
    ("--preset fig5 --E0 1e-300 fidelity --samples 10", 2, "--E0: " + AMPLITUDE + r"0\.0"),
    ("--preset fig5 --E0 1e308 fidelity --samples 10", 2, "--E0: " + AMPLITUDE + "inf"),
    ("--preset fig5 mitigate --e0-range 1e-300:1e-299:2 --samples 10", 2,
     "--e0-range: " + AMPLITUDE + r"0\.0"),
    ("--preset fig5 --E0 1e308 mitigate --sweep B0 --samples 10", 2, "--E0: " + AMPLITUDE + "inf"),
    ("--preset fig5 evolve --rabi 0", 2,
     r"--rabi \(or --E0\) must be finite and positive, got 0\.0"),
    ("--preset fig5 --E0 0 evolve", 2, r"--rabi \(or --E0\) must be finite and positive, got 0\.0"),
    ("--preset fig5 --E0 1e308 evolve --duration 1e-9", 2,
     r"--rabi \(or --E0\) must be finite, got inf"),
    # the rotation angle overflows, and so does pi / (2 Omega)
    ("--preset fig5 evolve --duration 1e300", 2,
     r"--duration: rotation angle must be finite, got inf"),
    ("--preset fig5 evolve --three-level --duration 1e300", 2,
     r"--duration: rotation angle must be finite, got inf"),
    ("--preset fig5 evolve --rabi 1e-310", 2,
     r"--rabi \(or --E0\): duration must be finite and >= 0, got inf"),
    # a drive of 2^63 periods or more; 190390016.74922743 s is the shortest duration whose
    # float quotient t / T reaches it, and without --duration the Rabi rate and the detuning
    # set the periods a drive spans
    ("--preset fig5 evolve --three-level --duration 1e12", 2,
     "--duration: " + PERIODS + r"5\.6\d*e\+22"),
    ("--preset fig5 evolve --three-level --detuning 5e10 --duration 190390016.74922743 --samples 2",
     2, "--duration: " + PERIODS + r"9\.223372036854776e\+18"),
    ("--preset fig5 evolve --three-level --detuning 1e300", 2, DEFAULT_DURATION + r"7\.6\d*e\+289"),
    ("--preset fig5 evolve --detuning 1e300 --three-level", 2, DEFAULT_DURATION + r"7\.6\d*e\+289"),
    ("--preset fig5 --E0 1e-20 evolve --three-level", 2, DEFAULT_DURATION + r"2\.6\d*e\+23"),
    ("--preset fig5 --E0 1e-30 evolve --three-level", 2, DEFAULT_DURATION + r"2\.6\d*e\+33"),
    ("--preset fig5 --E0 1e-30 gate --mode labframe", 2, "--E0: " + PERIODS + r"3\.8\d*e\+33"),
    ("--preset fig5 --E0 1e-30 gate --leakage", 2, "--E0: " + PERIODS + r"3\.8\d*e\+33"),
    # runtime errors: the error study's propagation names no option
    ("--preset fig5 --E0 1e-30 fidelity --mode labframe --range 0:0.01:2 --samples 2", 1,
     PERIODS + r"3\.8\d*e\+33"),
    ("--preset fig5 mitigate --mode labframe --e0-range 1e-30:1:2", 1, PERIODS + r"3\.8\d*e\+33"),
    # ~3e18 drive periods: the per-period roundoff compounds far past the guard
    ("--preset fig5 evolve --three-level --duration 5e7", 1,
     r"propagator departs from unitarity by \S+ over 2\.82e\+18 drive periods: "
     r"the per-period roundoff has compounded; shorten the duration"),
    # a drive too fast for the step cap: 8192 Magnus steps leave successive results apart by
    # more than tol and roundoff, so no unverified propagator is returned
    ("--preset fig5 evolve --three-level --rabi 1e16 --duration 1e-11 --samples 3", 1,
     STEP_CAP + r"1\.2e-05 apart, above tol 1e-09"),
    ("--preset fig5 evolve --three-level --rabi 1e15 --duration 1e-11 --samples 3", 1,
     STEP_CAP + r"5\.4e-09 apart, above tol 1e-09"),
    # the Rabi rate overflows to inf, which strict JSON cannot hold
    ("--preset fig5 --E0 1e308 qubit-params", 1,
     r"Out of range float values are not JSON compliant: inf"),
    # no Fourier basis within the cap resolves a sector of so large an m, or so thin a torus
    ("--preset fig5 spectrum --m 1000000000000", 1,
     r"eigensolve failed at B=0\.45, m=1000000000000: " + BASIS_CAP + "19"),
    ("sweep-b --m-list 99999999999999999999 --b-range 0:1:2", 1,
     r"eigensolve failed at B=0\.0, m=99999999999999999999: " + BASIS_CAP + "35"),
    ("--r 1 --R 1.0000001 spectrum", 1, r"eigensolve failed at B=0\.0, m=0: " + BASIS_CAP + "13"),
    # an overflow in the Fourier sums or the potential prints no numpy warning: the check it
    # fails reports it, on this one line; a residual whose square overflows keeps a finite norm
    ("--B 1e80 spectrum", 1, r"eigensolve failed at B=1e\+80, m=0: " + BASIS_CAP + "157"),
    ("--B 1e80 sweep-b --b-range 0:1e80:2", 1,
     r"eigensolve failed at B=1e\+80, m=0: " + BASIS_CAP + "157"),
    ("--preset fig3a window --scan-max 1e80", 1,
     r"eigensolve failed at B=2\.5e\+78, m=0: " + BASIS_CAP + "154"),
    # the potential is finite, but its Fourier transform overflows and LAPACK's eigh raises
    # LinAlgError on the Ritz matrix
    ("--B 1e153 spectrum", 1, r"eigensolve failed at B=1e\+153, m=0: .*"),
    ("sweep-b --b-range 0:1e153:2", 1, r"eigensolve failed at B=1e\+153, m=0: .*"),
    ("--B 5e153 spectrum", 1, NON_FINITE + r"5e\+153, m=0"),
    ("--B 5e153 potential", 1, r"CSV column V_B must be finite at theta=0\.0, got inf"),
    ("--B 1e200 spectrum", 1, NON_FINITE + r"1e\+200, m=0"),
    ("--preset fig5 --B 1e200 spectrum", 1, NON_FINITE + r"1e\+200, m=0"),
    ("--preset fig5 sweep-b --b-range 0:1e200:2", 1, NON_FINITE + r"1e\+200, m=0"),
    ("window --scan-max 1e300", 1, NON_FINITE + r"2\.5e\+298, m=0"),
    ("--preset fig3a window --scan-max 1e300", 1, NON_FINITE + r"2\.5e\+298, m=0"),
    ("--B 1e200 potential", 1, r"CSV column V_B must be finite at theta=0\.0, got inf"),
    # the coefficients' arithmetic: (e B)^2, or a potential the numerical Taylor route
    # differences, overflows; a geometry's (R - r)^4 underflows or overflows
    ("--preset fig5 --B 1e200 qubit-params", 1, r"closed_form coefficients overflow at B=1e\+200"),
    ("--preset fig5 --B 1e160 qubit-params", 1,
     r"numerical_taylor coefficients overflow at B=1e\+160"),
    ("--preset fig5 --B 1e200 gate", 1, r"numerical_taylor coefficients overflow at B=1e\+200"),
    ("--B 1e200 gate", 1, r"numerical_taylor coefficients overflow at B=1e\+200"),
    ("--preset fig5 --B 1e160 evolve", 1, r"numerical_taylor coefficients overflow at B=1e\+160"),
    ("--preset fig5 --B 1e160 fidelity --samples 10 --range 0:0.01:2", 1,
     r"numerical_taylor coefficients overflow at B=1e\+160"),
    ("--r 1e-100 --R 2e-100 qubit-params", 1, r"closed_form coefficients underflow at B=0\.0"),
    ("--r 1e100 --R 2e100 --mass-ratio 1e-250 qubit-params", 1,
     r"closed_form coefficients overflow at B=0\.0"),
    # runs that raise physics warnings before they fail, and print none of them
    # s >= 1 makes the dipole, and so the Rabi rate, negative
    ("--preset fig5 --r 1e-9 gate", 2, "--E0: " + AMPLITUDE + r"-35986872\.98\d*"),
    # an unresolvable anharmonicity, and a drive too long to propagate
    ("--preset fig5 --B 1e16 gate --mode labframe", 2, "--E0: " + PERIODS + r"3\.73\d*e\+25"),
]]


@pytest.fixture(scope="module")
def option_error_runs(tmp_path_factory):
    return runs_in_one_interpreter([shlex.split(row.line) for row in FAILURES if row.option],
                                   ("torusqubit", "numpy"), tmp_path_factory.mktemp("option"))


class TestFailingInputs:
    @pytest.mark.parametrize("row", FAILURES,
                             ids=lambda row: row.line or "no-arguments")
    def test_exits_with_one_error_line_and_no_output(self, request, tmp_path, row):
        run_cli(row.line, tmp_path, row.code, row.pattern)
        if row.option:  # an option's bounds live in model, so no layer is needed to check it
            runs = request.getfixturevalue("option_error_runs")
            assert runs[tuple(shlex.split(row.line))] == (2, [])

    # each case breaks one clause of a clean failure: exit 2, no stdout, the one line
    # `error: eigensolve failed` and an empty run directory
    @pytest.mark.parametrize("code, out, err, written", [
        (1, "", "error: eigensolve failed\n", False),
        (2, "wrote out/spectrum.csv\n", "error: eigensolve failed\n", False),
        (2, "", "RuntimeWarning: overflow\nerror: eigensolve failed\n", False),
        (2, "", "error: eigensolve failed\nerror: eigensolve failed\n", False),
        (2, "", "error: eigensolve failed at B=0.0\n", False),
        (2, "", "error: eigensolve failed\n", True),
    ], ids=["exit-code", "stdout", "warning-line", "second-line", "partial-match",
           "artifact"])
    def test_contract_check_refuses_each_breach(self, tmp_path, code, out, err, written):
        check_failure(2, "", "error: eigensolve failed\n", 2, "eigensolve failed", tmp_path)
        if written:
            (tmp_path / "out").mkdir()
        with pytest.raises(AssertionError):
            check_failure(code, out, err, 2, "eigensolve failed", tmp_path)


def value(low, high):
    """An option's value: typical, in [low, high], or any double at all."""
    return st.one_of(st.floats(low, high), st.floats()).map(repr)


FLAG = st.just(None)  # an option that takes no value
# the value families of EDGE_INPUTS and FAILURES, drawn: fields, Rabi rates, geometries,
# masses, grids, orbital numbers, seeds and drive lengths, each typical or any double.
# Grids stop at 2048 points, since a grid's memory grows with it (about 270 B a point), a
# sweep and a study run at two points and a study on at most 50 samples, and window, whose
# scan makes 41 or more sector solves (seconds for a thin torus), is left to the tables
GLOBAL_OPTIONS = {
    "--preset": st.sampled_from(["fig3a", "fig3b", "fig5"]),
    "--B": value(0.0, 2.0), "--E0": value(0.0, 1e4),
    "--r": value(1e-9, 1e-7), "--R": value(1e-8, 1e-6), "--mass-ratio": value(1e-2, 10.0),
    "--n-points": st.integers(-1, 2048).map(str), "--stencil-order": st.sampled_from("234"),
    "--seed": st.integers(-1, 2**80).map(str),
}
ORBITAL = st.one_of(st.integers(-3, 3), st.integers(-10**20, 10**20)).map(str)
SUBCOMMAND_OPTIONS = {
    "potential": {"--E-static": value(-1e7, 1e7)},
    "spectrum": {"--m": ORBITAL, "--levels": st.integers(-1, 70).map(str)},
    "sweep-b": {"--b-range": value(0.0, 2.0).map("0:{}:2".format),
                "--m-list": st.lists(ORBITAL, min_size=1, max_size=3).map(",".join)},
    "qubit-params": {},
    "evolve": {"--three-level": FLAG, "--rabi": value(0.0, 1e13), "--detuning": value(-1e12, 1e12),
               "--phase": value(0.0, 7.0), "--duration": value(0.0, 1e-8),
               "--samples": st.integers(0, 20).map(str)},
    "gate": {"--gate": st.sampled_from(["hadamard", "phase:1.0", "prep:1.2,0.7"]),
             "--mode": st.sampled_from(["rwa", "labframe"]), "--leakage": FLAG,
             "--tol": value(1e-12, 1e-6)},
    "fidelity": {"--scan": st.sampled_from(["dB", "dE"]), "--mode": st.sampled_from(["rwa", "labframe"]),
                 "--range": value(-0.1, 0.1).map("0:{}:2".format),
                 "--samples": st.integers(0, 50).map(str)},
}
ALWAYS = {("sweep-b", "--b-range"), ("fidelity", "--range"), ("fidelity", "--samples")}


@st.composite
def cli_arguments(draw):
    """The arguments of one CLI run: a subcommand, and some of the options of each level."""
    command = draw(st.sampled_from(sorted(SUBCOMMAND_OPTIONS)))
    argv = []
    for options in (GLOBAL_OPTIONS, SUBCOMMAND_OPTIONS[command]):
        for flag, values in options.items():
            if (command, flag) in ALWAYS or draw(st.booleans()):
                given_value = draw(values)
                argv.append(flag if given_value is None else f"{flag}={given_value}")
        if options is GLOBAL_OPTIONS:
            argv.append(command)
    return argv


class TestEdgeInputs:
    @pytest.mark.parametrize("line", EDGE_INPUTS)
    def test_edge_input_writes_strict_data(self, tmp_path, line):
        run_cli(line, tmp_path)

    @pytest.mark.parametrize("line", DRIFTING_GATES)
    def test_gate_fidelity_is_clipped_and_drift_recorded(self, tmp_path, line):
        out = run_cli(line, tmp_path).dir
        payload = json.loads((out / "gate.json").read_text())
        unitary = np.array([[complex(*value) for value in row] for row in payload["unitary"]])
        unclipped = control.phase_insensitive_fidelity(control.HADAMARD, unitary)
        assert unclipped > 1.0 and payload["fidelity_to_ideal"] <= 1.0
        # |Tr(G^dagger U)| / 2 <= ||U||_2 <= sqrt(1 + 2 max |U^dagger U - I|) <= 1 + drift
        results = json.loads((out / "gate.json.manifest.json").read_text())["results"]
        assert results["unitarity_drift"] >= unclipped - 1.0

    # each case breaks one clause of a clean success: exit 0, no error line, one `wrote` line
    # per data file and at most a summary line, strict data, each data file's manifest, and
    # each printed warning recorded in a manifest
    @pytest.mark.parametrize("code, out, err, name, text", [
        (1, None, None, None, None),
        (0, None, "error: eigensolve failed\n", None, None),
        (0, "wrote {0}/qubit.json\nargmin: E0 = 100\n", None, None, None),
        (0, "wrote {0}/levels.csv\nwrote {0}/qubit.json\nargmin: E0 = 100\nwarning\n", None,
         None, None),
        (0, None, None, "qubit.json", '{"omega": NaN}'),
        (0, None, None, "levels.csv", "B,energy\n0.0,inf\n"),
        (0, None, None, "qubit.json.manifest.json", None),
        (0, None, "x.py:1: UserWarning: low field\nx.py:2: UserWarning: high field\n", None,
         None),
    ], ids=["exit-code", "error-line", "missing-wrote-line", "stray-stdout-line", "json-nan",
           "csv-inf", "missing-manifest", "unrecorded-warning"])
    def test_success_check_refuses_each_breach(self, checks, tmp_path, code, out, err, name,
                                               text):
        clean_out = "wrote {0}/levels.csv\nwrote {0}/qubit.json\nargmin: E0 = 100\n"
        clean_err = "x.py:1: UserWarning: low field\n"
        for data, body in (("levels.csv", "B,energy\n0.0,1.5\n"), ("qubit.json", "{}")):
            (tmp_path / data).write_text(body)
            (tmp_path / f"{data}.manifest.json").write_text('{"warnings": ["low field"]}')
        check_success(0, clean_out.format(tmp_path), clean_err, tmp_path)
        if text is not None:
            (tmp_path / name).write_text(text)
        elif name is not None:
            (tmp_path / name).unlink()
        with pytest.raises((AssertionError, checks.CheckFailed)):
            check_success(code, (out or clean_out).format(tmp_path), err or clean_err, tmp_path)

    @settings(max_examples=60, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=cli_arguments())
    def test_generated_input_fails_cleanly_or_writes_strict_data(self, tmp_path_factory, argv):
        run_cli(argv, tmp_path_factory.mktemp("generated"), None)


class TestArtifacts:
    def test_csv_writer_spells_each_kind_once(self):
        rows = [(1, True, 0.5), (np.int64(-2), np.bool_(False), np.float64(0.1)), (0, False, 0)]
        assert cli._csv(["a", "b", "c"], rows, "note") == (
            "# note\na,b,c\n1,true,0.5\n-2,false,0.1\n0,false,0\n")
        assert cli._csv(["x"], [(np.float32(0.5),), (1e-300,)]) == "x\n0.5\n1e-300\n"
        for value in (math.inf, -np.inf, np.float64("nan")):
            with pytest.raises(ValueError, match=f"^CSV column x must be finite, got {value}$"):
                cli._csv(["x"], [(1.0,), (value,)])
            at_point = f"^CSV column c must be finite at a=-2, got {value}$"
            with pytest.raises(ValueError, match=at_point):
                cli._csv(["a", "b", "c"], [(np.int64(-2), True, value)])

    def test_potential_profile_symmetric(self, tmp_path):
        out = run_cli(["--preset", "fig3a", "--n-points", "64", "potential"], tmp_path).dir
        header, data = read_csv(out / "potential.csv")
        assert header == ["theta", "V_bare", "V_E", "V_B", "V_total"]
        totals = [float(r[4]) for r in data]
        assert totals[1:] == pytest.approx(totals[1:][::-1], rel=1e-12)

    def test_manifest_contents(self, tmp_path):
        out = run_cli(["--preset", "fig3a", "--n-points", "64", "potential"], tmp_path).dir
        manifest = json.loads((out / "potential.csv.manifest.json").read_text())
        assert manifest["command"] == "potential"
        assert manifest["config"]["r_minor"] == pytest.approx(3.5e-8)
        assert "energy_J" in manifest["unit_scales"]
        assert "created" in manifest
        assert manifest["software_version"]

    @pytest.mark.parametrize("line, options", [
        ("--n-points 64 potential --E-static 10", {"--m": 0, "--E-static": 10.0}),
        ("--n-points 256 spectrum --m 1 --levels 3",
         {"--m": 1, "--levels": 3, "--dump-wavefunctions": False}),
        ("--n-points 256 sweep-b --b-range 0:0.1:2 --m-list 0,1",
         {"--b-range": "0:0.1:2", "--m-list": "0,1", "--levels": 6}),
        ("--n-points 256 window --scan-max 1.5", {"--scan-max": 1.5}),
        ("qubit-params", {}),
        ("evolve --samples 5 --phase 0.5", {"--rabi": None, "--detuning": 0.0, "--phase": 0.5,
                                            "--duration": None, "--samples": 5,
                                            "--three-level": False}),
        ("gate --gate phase:1.0", {"--gate": "phase:1.0", "--mode": "rwa", "--tol": 1e-9,
                                   "--leakage": False}),
        ("fidelity --scan dE --range 0:0.01:3 --samples 100",
         {"--gate": "hadamard", "--mode": "rwa", "--scan": "dE", "--range": "0:0.01:3",
          "--samples": 100, "--check-window": False}),
        ("mitigate --e0-range 100:1000:2 --samples 10",
         {"--gate": "hadamard", "--mode": "rwa", "--delta-b": 0.005, "--delta-e": 0.0,
          "--sweep": "E0", "--e0-range": "100:1000:2", "--b0-range": "0.4:0.9:6",
          "--spacing": "log", "--samples": 10}),
    ], ids=["potential", "spectrum", "sweep-b", "window", "qubit-params", "evolve", "gate",
           "fidelity", "mitigate"])
    def test_manifest_records_the_subcommand_options(self, tmp_path, line, options):
        # every subcommand option after defaults, keyed by its flag; the global options
        # are the config, and --config, --preset and --output-dir are not options of a run
        out = run_cli(f"--preset fig5 {line}", tmp_path).dir
        for manifest in out.glob("*.manifest.json"):
            assert json.loads(manifest.read_text())["options"] == options

    def test_qubit_params_reports_both_sources(self, tmp_path):
        out = run_cli(["--preset", "fig5", "qubit-params"], tmp_path).dir
        payload = json.loads((out / "qubit_params.json").read_text())
        assert payload["default_source"] == "numerical_taylor"
        assert set(payload["sources"]) == {"numerical_taylor", "closed_form"}
        assert payload["Omega_rad_per_s"] == pytest.approx(3.282384272e9, rel=1e-6)
        ratio = (
            payload["sources"]["closed_form"]["beta_sq"]
            / payload["sources"]["numerical_taylor"]["beta_sq"]
        )
        assert abs(ratio - 1.0) > 0.5  # the two routes genuinely disagree

    def test_gate_hadamard(self, tmp_path):
        out = run_cli(["--preset", "fig5", "gate", "--gate", "hadamard"], tmp_path).dir
        payload = json.loads((out / "gate.json").read_text())
        assert payload["fidelity_to_ideal"] >= 1.0 - 1e-9
        assert len(payload["sequence"]["pulses"]) == 1

    def test_gate_prep(self, tmp_path):
        out = run_cli(["--preset", "fig5", "gate", "--gate", "prep:1.2,0.7"], tmp_path).dir
        payload = json.loads((out / "gate.json").read_text())
        assert payload["fidelity_to_ideal"] >= 1.0 - 1e-9

    def test_evolve_trajectory(self, tmp_path):
        out = run_cli(
            ["--preset", "fig5", "evolve", "--samples", "20", "--phase", "0.5"], tmp_path).dir
        header, data = read_csv(out / "trajectory.csv")
        assert header == ["t", "x", "y", "z", "p0", "p1"]
        assert len(data) == 20
        first = [float(x) for x in data[0]]
        assert first[1:4] == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)
        last = [float(x) for x in data[-1]]
        assert abs(last[3]) < 1e-9  # default duration pi/(2 Omega) lands on equator

    def test_spectrum_bound_count(self, tmp_path):
        out = run_cli(["--preset", "fig3a", "spectrum", "--m", "0"], tmp_path).dir
        header, data = read_csv(out / "spectrum.csv")
        bound = [r for r in data if r[4] == "true"]
        assert len(bound) == 1

    def test_spectrum_dump_wavefunctions(self, checks, tmp_path):
        out = run_cli(["--preset", "fig3a", "--n-points", "256", "spectrum", "--levels", "4",
                       "--dump-wavefunctions"], tmp_path).dir
        payload = checks.load_json(out / "spectrum_states.json")
        theta = np.array(payload["theta"])
        _, data = read_csv(out / "spectrum.csv")
        assert [s["energy_J"] for s in payload["states"]] == [float(r[3]) for r in data]
        half_ring = (theta > 0) & (theta < np.pi)
        for state in payload["states"]:
            chi = np.array(state["wavefunction"])
            assert np.sum(chi**2) * (2 * np.pi / theta.size) == pytest.approx(1.0, abs=1e-12)
            inner = chi[half_ring]
            assert inner[np.argmax(np.abs(inner))] > 0  # README's half-ring sign rule

    def test_sweep_b(self, tmp_path):
        out = run_cli(
            ["--preset", "fig3a", "--n-points", "256", "sweep-b",
             "--b-range", "0:0.1:3", "--m-list", "0,1", "--levels", "2"], tmp_path).dir
        header, data = read_csv(out / "sweep_b.csv")
        assert header == ["B", "m", "n", "energy", "bound", "localization"]
        assert len(data) == 3 * 2 * 2

    def test_window_fig3a(self, tmp_path):
        out = run_cli(["--preset", "fig3a", "--n-points", "512", "window"], tmp_path).dir
        payload = json.loads((out / "window.json").read_text())
        assert payload["B_min_T"] < 0.45 < payload["B_max_T"]

    def test_fidelity_scan_shape(self, tmp_path):
        out = run_cli(
            ["--preset", "fig5", "fidelity", "--scan", "dB",
             "--range", "0:0.01:3", "--samples", "400"], tmp_path).dir
        header, data = read_csv(out / "fidelity.csv")
        assert header == ["delta", "mean_infidelity", "max_infidelity"]
        means = [float(r[1]) for r in data]
        assert means[0] == pytest.approx(0.0, abs=1e-12)
        assert means[2] > means[1] > 0.0

    def test_mitigate(self, tmp_path):
        out = run_cli(
            ["--preset", "fig5", "mitigate", "--e0-range", "100:10000:3",
             "--samples", "400"], tmp_path).dir
        header, data = read_csv(out / "mitigate.csv")
        means = [float(r[1]) for r in data]
        assert means[-1] <= means[0]
        manifest = json.loads((out / "mitigate.csv.manifest.json").read_text())
        assert manifest["results"]["argmin_E0"] == pytest.approx(float(data[-1][0]))


class TestWarningsInManifest:
    def test_physics_warning_recorded_once(self, tmp_path):
        run = run_cli(["--preset", "fig3b", "--B", "0", "qubit-params"], tmp_path)
        # the location is the line that warns, which no edit of cli.py moves
        located = re.search(r"^(\S+):\d+: UserWarning: zero-point angular spread", run.err,
                            re.MULTILINE)
        assert located and Path(located[1]).name == "reduction.py"
        manifest = json.loads((run.dir / "qubit_params.json.manifest.json").read_text())
        spread = [w for w in manifest["warnings"] if w.startswith("zero-point angular spread")]
        assert len(spread) == 1

    @pytest.mark.parametrize("action", ["ignore", "error"])
    def test_recorded_whatever_the_interpreter_filters(self, tmp_path, action):
        # -W ignore would drop the warning from the manifest, -W error would
        # turn it into a traceback: the run records under its own filter
        done = subprocess.run([sys.executable, "-W", action, "-m", "torusqubit.cli",
                               "--preset", "fig3b", "--B", "0", "qubit-params",
                               "--output-dir", str(tmp_path)],
                              env=source_env(), capture_output=True, text=True)
        check_success(done.returncode, done.stdout, done.stderr, tmp_path)
        assert "Traceback" not in done.stderr
        manifest = json.loads((tmp_path / "qubit_params.json.manifest.json").read_text())
        assert [w for w in manifest["warnings"] if w.startswith("zero-point angular spread")]

    def test_window_exit_flags_recorded(self, tmp_path):
        run = run_cli(["--preset", "fig5", "--n-points", "256", "fidelity", "--check-window",
                       "--B", "0.95", "--range", "0:0.05:2", "--samples", "50"], tmp_path)
        assert "UserWarning: perturbed field" in run.err
        manifest = json.loads((run.dir / "fidelity.csv.manifest.json").read_text())
        assert len(manifest["warnings"]) == 1
        assert "leaves the two-bound-state window" in manifest["warnings"][0]


class TestReproducibility:
    def test_identical_config_identical_bytes(self, tmp_path):
        args = ["--preset", "fig5", "--seed", "42", "fidelity",
                "--scan", "dB", "--range", "0:0.005:3", "--samples", "500"]
        out_a, out_b = (run_cli(args, tmp_path).dir for _ in range(2))
        assert (out_a / "fidelity.csv").read_bytes() == (out_b / "fidelity.csv").read_bytes()

    @pytest.mark.parametrize("before, after", [(None, "4"), ("20", "20")])
    def test_openblas_worker_timeout_default(self, tmp_path, monkeypatch, before, after):
        # a short idle wait for OpenBLAS's workers, unless the user set one;
        # no other variable, such as a thread count, is written
        environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
        if before is not None:
            environ["OPENBLAS_THREAD_TIMEOUT"] = before
        monkeypatch.setattr(os, "environ", environ)
        expected = {**environ, "OPENBLAS_THREAD_TIMEOUT": after}
        run_cli(["--preset", "fig5", "qubit-params"], tmp_path)
        assert environ == expected

    @pytest.mark.skipif(not openblas_dynamic_arch(),
                        reason="OPENBLAS_CORETYPE selects a kernel only in a DYNAMIC_ARCH OpenBLAS")
    def test_mitigate_argmin_does_not_depend_on_the_kernel(self, tmp_path):
        # with a drive error alone every row's exact Haar mean is the same up
        # to roundoff, which orders the rows differently on each kernel; all
        # tie, and the tie goes to the first row
        for coretype in (None, "Haswell"):
            out = tmp_path / str(coretype)
            env = source_env() if coretype is None else source_env(OPENBLAS_CORETYPE=coretype)
            [line] = readme_commands("mitigate --sweep B0")
            subprocess.run([sys.executable, "-m", "torusqubit.cli", *shlex.split(line),
                            "--output-dir", str(out)], env=env, capture_output=True, check=True)
            manifest = json.loads((out / "mitigate.csv.manifest.json").read_text())
            assert manifest["results"]["argmin_B0"] == 0.4


class TestNewSurfaces:
    def test_gate_tol_reaches_leakage_probe(self, tmp_path, monkeypatch):
        seen = []

        def probe(*args, tol, **kwargs):
            seen.append(tol)
            return 0.0

        monkeypatch.setattr(dynamics, "leakage_probe", probe)
        run_cli("--preset fig5 gate --gate prep:1.2,0.7 --leakage --tol 1e-10", tmp_path)
        assert seen == [1e-10]

    def test_phase_gate_leakage_needs_no_probe(self, tmp_path, monkeypatch):
        # a virtual phase gate has no pulse, so nothing can leak
        def probe(*args, **kwargs):
            raise AssertionError("leakage_probe called for a pulse-free sequence")

        monkeypatch.setattr(dynamics, "leakage_probe", probe)
        out = run_cli("--preset fig5 gate --gate phase:1.0 --leakage", tmp_path).dir
        assert '"max_leakage": 0.0' in (out / "gate.json").read_text()

    def test_dense_reference_solve_loads_no_scipy(self):
        # n = 700 lies above the old 600 cutoff, where the reference solve ran ARPACK
        code = ("from torusqubit.model import TorusGeometry\n"
                "from torusqubit.potential import PotentialParams\n"
                "from torusqubit.spectral import Discretization, build_hamiltonian,"
                " lowest_eigenpairs\n"
                "params = PotentialParams(geom=TorusGeometry(3.5e-8, 9e-8), B=0.45)\n"
                "for n in (64, 700):\n"
                "    energies, _ = lowest_eigenpairs(build_hamiltonian(params, Discretization(n)), 6)\n"
                "    assert energies.shape == (6,)")
        assert modules_after(code, "scipy") == []

    def test_cli_import_loads_model_alone(self):
        assert modules_after("import torusqubit.cli", "torusqubit", "scipy", "numpy") == [
            "torusqubit", "torusqubit.cli", "torusqubit.model"]

    @pytest.mark.parametrize("args, layers", [
        (["potential"], ["potential"]),
        (["spectrum"], ["potential", "spectral"]),
        (["sweep-b", "--b-range", "0:1:3", "--m-list", "0,1"], ["potential", "spectral"]),
        (["window"], ["potential", "spectral"]),
        (["qubit-params"], ["potential", "reduction"]),
        (["evolve", "--samples", "5"], ["dynamics", "potential", "reduction"]),
        (["gate"], ["control", "dynamics", "potential", "reduction"]),
        (["fidelity", "--range", "0:0.01:2", "--samples", "50"],
         ["control", "dynamics", "errors", "potential", "reduction"]),
        (["fidelity", "--range", "0:0.01:2", "--samples", "50", "--check-window"],
         ["control", "dynamics", "errors", "potential", "reduction", "spectral"]),
        (["mitigate", "--e0-range", "100:1000:2", "--samples", "50"],
         ["control", "dynamics", "errors", "potential", "reduction"]),
        (["gate", "--mode", "labframe", "--leakage"], ["control", "dynamics", "potential", "reduction"]),
        (["evolve", "--three-level"], ["dynamics", "potential", "reduction"]),
    ])
    def test_subcommand_loads_only_its_layers(self, tmp_path, args, layers):
        # each subcommand imports the layers it runs, and none loads scipy or
        # numpy.ma (14 ms of a cold run, which np.unique imports); every one
        # that builds arrays loads numpy, and qubit-params does not
        argv = ["--preset", "fig5", *args, "--output-dir", str(tmp_path)]
        code = f"import torusqubit.cli\nassert torusqubit.cli.main({argv!r}) == 0"
        expected = ["torusqubit", "torusqubit.cli", "torusqubit.model",
                    *(f"torusqubit.{layer}" for layer in layers)]
        loaded = modules_after(code, "torusqubit", "scipy", "numpy")
        assert [m for m in loaded if not m.startswith("numpy")] == sorted(expected)
        assert ("numpy" in loaded) == (args[0] != "qubit-params")
        assert "numpy.ma" not in loaded

    @pytest.mark.parametrize("args, exit_code", SCALAR_RUNS)
    def test_scalar_run_loads_no_numpy(self, scalar_runs, args, exit_code):
        # the reduction is scalar algebra on math, and help and configuration
        # errors end before any layer is imported
        assert scalar_runs[tuple(args)] == (exit_code, [])

    def test_evolve_three_level(self, tmp_path):
        out = run_cli(
            ["--preset", "fig5", "evolve", "--three-level", "--samples", "25"], tmp_path).dir
        header, data = read_csv(out / "trajectory.csv")
        assert header == ["t", "x", "y", "z", "p0", "p1", "p2"]
        assert len(data) == 25
        p2 = [float(r[6]) for r in data]
        assert max(p2) < 1e-3  # leakage stays small at the operating point

    def test_mitigate_b0_sweep(self, tmp_path):
        out = run_cli(
            ["--preset", "fig5", "--E0", "1000", "mitigate", "--sweep", "B0",
             "--b0-range", "0.4:0.6:3", "--delta-b", "0", "--delta-e", "0.005",
             "--samples", "300"], tmp_path).dir
        header, data = read_csv(out / "mitigate.csv")
        assert header == ["B0", "mean_infidelity", "max_infidelity"]
        means = [float(r[1]) for r in data]
        assert means[0] == pytest.approx(means[-1], rel=1e-9)


# the README's error-study commands, each picked by the words it holds; a
# selector picks every line that holds them, and one that no line holds fails
ERROR_STUDY_SELECTORS = {
    "fidelity-dB-11": "fidelity --scan dB --range 0:0.01:11",
    "fidelity-dB-21": "fidelity --scan dB --range 0:0.01:21",
    "fidelity-dE-21": "fidelity --scan dE --range 0:0.01:21",
    "mitigate-E0-7": "mitigate --delta-b 0.005 --e0-range 100:10000:7",
    "mitigate-E0": "mitigate --delta-b 0.005",
    "mitigate-B0": "mitigate --sweep B0",
}


class TestExactHaarMean:
    @pytest.mark.parametrize("args, zero_error_rows", [
        (["fidelity", "--range", "0:0.01:3", "--samples", "100"], 1),
        (["mitigate", "--delta-b", "0", "--samples", "100"], 7),
    ])
    def test_oracles_lie_in_unit_interval(self, tmp_path, args, zero_error_rows):
        # at zero error M = U^dag U carries roundoff, which once gave -4.4e-16
        out = run_cli(["--preset", "fig5", *args], tmp_path).dir
        results = json.loads((out / f"{args[0]}.csv.manifest.json").read_text())["results"]
        for key in ("haar_mean_exact", "worst_case_exact"):
            assert all(0.0 <= value <= 1.0 for value in results[key])
            assert all(value <= 1e-15 for value in results[key][:zero_error_rows])

    @pytest.mark.parametrize("case", sorted(ERROR_STUDY_SELECTORS))
    def test_manifest_row_matches_monte_carlo(self, case, tmp_path, monkeypatch):
        # the README error-study commands, each row recomputed by the public
        # single-point average with its per-sample values kept: the data file
        # holds that report's mean and max bit for bit, and the manifest's
        # exact Haar mean sits within 5 standard errors of the mean
        original, sweeps = errors.field_error_sweep, []

        def recording(*args, **kwargs):
            sweeps.append((args, kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(errors, "field_error_sweep", recording)
        for line in readme_commands(ERROR_STUDY_SELECTORS[case]):
            sweeps.clear()
            command = "fidelity" if "fidelity" in line.split() else "mitigate"
            out = run_cli(line, tmp_path).dir
            [((synthesize, qubit_fn, point, axis, grid, n, seed, mode, window), kwargs)] = sweeps
            assert kwargs == {}
            reports = []
            for value in grid:
                model = errors.ErrorModel(**{**point, axis: float(value)})
                seq = synthesize(qubit_fn(model.B0), model.E0)
                reports.append(errors.average_gate_infidelity(seq, qubit_fn, model, n, seed, mode,
                                                              window, keep_samples=True))
            _, data = read_csv(out / f"{command}.csv")
            manifest = json.loads((out / f"{command}.csv.manifest.json").read_text())
            exact = manifest["results"]["haar_mean_exact"]
            worst = manifest["results"]["worst_case_exact"]
            assert len(exact) == len(worst) == len(data) == len(reports)
            assert all(np.isfinite(exact)) and all(np.isfinite(worst))
            for row, value, bound, report in zip(data, exact, worst, reports):
                assert value == report.haar_mean_exact
                assert bound == report.worst_case_exact
                assert float(row[1]) == report.mean_infidelity
                stderr = np.std(report.per_sample) / np.sqrt(report.per_sample.size)
                assert abs(report.mean_infidelity - value) <= 5.0 * stderr + 1e-15
                # no input does worse than the exact worst case 1 - |Tr M|^2 / 4
                assert float(row[2]) == report.max_infidelity <= bound + 1e-15
