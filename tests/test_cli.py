import argparse
import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from torusqubit import cli, dynamics, errors, potential, spectral
from torusqubit.cli import main, parse_range, load_config, PRESETS, ConfigError


def run(args, tmp_path, sub=None):
    out = tmp_path if sub is None else tmp_path / sub
    return main(args + ["--output-dir", str(out)]), out


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


def scipy_modules_after(code):
    """Names of the scipy modules loaded once code has run in a fresh interpreter."""
    return modules_after(code, "scipy")


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

    def test_invalid_geometry_lists_violation(self, tmp_path, capsys):
        code = main(
            ["--r", "9e-8", "--R", "3.5e-8", "--output-dir", str(tmp_path), "potential"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "r_minor < R_major" in err

    def test_multiple_violations_all_listed(self, tmp_path, capsys):
        code = main(
            ["--r", "9e-8", "--R", "3.5e-8", "--n-points", "10",
             "--output-dir", str(tmp_path), "potential"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "r_minor < R_major" in err
        assert "n_points" in err

    def test_unknown_config_key_rejected(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"preset": "fig5", "nonsense": 1}))
        code = main(["--config", str(config), "--output-dir", str(tmp_path), "potential"])
        assert code == 2

    def test_wrong_types_in_config_file_all_listed(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"preset": "fig5", "n_points": "many", "B": "x"}))
        code = main(["--config", str(config), "--output-dir", str(tmp_path / "out"), "potential"])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: invalid configuration: ")
        problems = err[0].removeprefix("error: invalid configuration: ").split("; ")
        assert [p.split(": ")[0] for p in problems] == ["--n-points, --stencil-order", "--B, --E0"]
        assert not (tmp_path / "out").exists()

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
    def test_malformed_config_file_is_one_line(self, tmp_path, capsys, command, content, named):
        config = tmp_path / "config.json"
        config.write_bytes(content)
        code, out = run(["--config", str(config), command], tmp_path, "out")
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("args, named", [
        (["--n-points", "abc", "potential"], "error: --n-points: invalid int value: 'abc'"),
        (["spectrum", "--levels", "x"], "error: --levels: invalid int value: 'x'"),
        (["gate", "--mode", "foo"], "error: --mode: invalid choice: 'foo'"),
        ([], "error: the following arguments are required: command"),
        (["foo"], "error: command: invalid choice: 'foo'"),
    ])
    def test_parse_error_is_one_line(self, tmp_path, capsys, args, named):
        code, out = run(args, tmp_path, "out")
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(named)
        assert not out.exists()

    @pytest.mark.parametrize("args", [["-h"], ["spectrum", "-h"]])
    def test_help_exits_zero(self, capsys, args):
        with pytest.raises(SystemExit) as exited:
            main(args)
        assert exited.value.code == 0
        assert capsys.readouterr().out.startswith("usage: torusqubit")

    @pytest.mark.parametrize("key, value, named", [
        ("preset", "fig9", "--preset: unknown preset 'fig9'"),
        ("source", "foo", "--source: source must be 'numerical_taylor' or 'closed_form'"),
        ("stencil_order", 3, "--n-points, --stencil-order: stencil_order must be 2 or 4"),
    ])
    def test_flag_and_file_share_one_check(self, tmp_path, capsys, key, value, named):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        flag = "--" + key.replace("_", "-")
        for args in ([flag, str(value), "potential"], ["--config", str(config), "potential"]):
            code, out = run(args, tmp_path, "out")
            assert code == 2
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]
            assert not out.exists()

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
        outs = [run([*args, "spectrum", "--levels", "2"], tmp_path, sub)
                for sub, args in (("file", ["--config", str(config)]),
                                  ("flags", ["--preset", "fig3a", "--B", "0", "--n-points", "256"]))]
        assert [code for code, _ in outs] == [0, 0]
        (_, file_out), (_, flag_out) = outs
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

    @pytest.mark.parametrize("flag", ["--E0", "--B", "--mass-ratio"])
    def test_nan_config_rejected_without_artifact(self, tmp_path, capsys, flag):
        code, out = run(["--preset", "fig5", flag, "nan", "qubit-params"], tmp_path, "out")
        assert code == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_rejected_without_artifact(self, tmp_path, capsys):
        code, out = run(["--preset", "fig5", "--seed", "-1", "fidelity"], tmp_path, "out")
        assert code == 2
        assert "seed must be a non-negative integer" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_result_writes_no_artifact(self, tmp_path, capsys):
        # the Rabi rate overflows to inf, which strict JSON cannot hold
        code, out = run(["--preset", "fig5", "--E0", "1e308", "qubit-params"], tmp_path, "out")
        assert code == 1
        assert "not JSON compliant" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args, layer, patch", [
        (["--n-points", "256", "sweep-b", "--b-range", "0.4:0.5:2"], spectral, "sweep_field"),
        (["evolve"], dynamics, "trajectory"),
    ])
    def test_non_finite_csv_value_writes_no_artifact(self, tmp_path, capsys, monkeypatch,
                                                     args, layer, patch):
        # one NaN in one row of the data file: the CSV writer refuses it, as strict JSON does
        computed = getattr(layer, patch)

        def poisoned(*args, **kwargs):
            result = computed(*args, **kwargs)
            if patch == "trajectory":
                times, amplitudes = result
                return np.where(np.arange(times.size) == 1, np.nan, times), amplitudes
            state = dataclasses.replace(result[1].states[0], localization=math.nan)
            return [result[0], dataclasses.replace(result[1], states=(state,))]

        monkeypatch.setattr(layer, patch, poisoned)
        code, out = run(["--preset", "fig5", *args], tmp_path, "out")
        assert code == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            "error: CSV values must be finite, got nan"]
        assert not out.exists()

    def test_non_unitary_long_drive_writes_no_artifact(self, tmp_path, capsys):
        # ~3e18 drive periods: the per-period roundoff compounds far past the guard
        code, out = run(["--preset", "fig5", "evolve", "--three-level", "--duration", "5e7"],
                        tmp_path, "out")
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: propagator departs from unitarity")
        assert not out.exists()

    def test_eigensolve_failure_names_its_point(self, tmp_path, capsys):
        # no Fourier basis within the cap resolves a sector of so large an m
        code, out = run(["--preset", "fig5", "spectrum", "--m", "1000000000000"], tmp_path, "out")
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: eigensolve failed at B=0.45, m=1000000000000: ")
        assert not out.exists()

    @pytest.mark.skipif(not openblas_dynamic_arch(),
                        reason="OPENBLAS_CORETYPE selects a kernel only in a DYNAMIC_ARCH OpenBLAS")
    def test_non_unitary_long_drive_on_an_avx2_kernel(self, tmp_path):
        # the squaring's roundoff differs by kernel; on Haswell it used to
        # overflow to nan before the guard looked at the product
        out = tmp_path / "out"
        done = subprocess.run(
            [sys.executable, "-m", "torusqubit.cli", "--preset", "fig5", "evolve",
             "--three-level", "--duration", "5e7", "--output-dir", str(out)],
            env=source_env(OPENBLAS_CORETYPE="Haswell"), capture_output=True, text=True)
        assert done.returncode == 1
        err = done.stderr.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: propagator departs from unitarity")
        assert "nan" not in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("value", ["2", "nan"])
    @pytest.mark.parametrize("command", ["spectrum", "qubit-params"])
    def test_loc_threshold_outside_unit_interval_rejected(self, tmp_path, capsys, command, value):
        # spectrum classifies bound states with it; qubit-params only records it
        code, out = run(["--preset", "fig5", "--loc-threshold", value, command], tmp_path, "out")
        assert code == 2
        assert "loc_threshold must lie in (0, 1)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("message, expected", [
        ("Unable to allocate 7.45 GiB", "error: out of memory: Unable to allocate 7.45 GiB"),
        ("", "error: out of memory"),
    ])
    def test_memory_error_is_one_line_without_artifact(self, tmp_path, capsys, monkeypatch,
                                                       message, expected):
        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(potential, "internal_terms", exhausted)
        code, out = run(["--preset", "fig3a", "potential"], tmp_path, "out")
        assert code == 1
        assert capsys.readouterr().err.strip().splitlines() == [expected]
        assert not out.exists()

    @pytest.mark.parametrize("args, name", [
        (["mitigate", "--e0-range", "1:2"], "--e0-range"),
        (["mitigate", "--spacing", "log", "--e0-range", "0:100:3"], "--e0-range"),
        (["sweep-b", "--m-list", "0,a"], "--m-list"),
        (["gate", "--gate", "phase:abc"], "--gate"),
        (["gate", "--gate", "prep:1.2"], "--gate"),
        (["spectrum", "--levels", "0"], "--levels"),
        (["spectrum", "--levels", "-3"], "--levels"),
        (["--n-points", "64", "spectrum", "--levels", "65"], "--levels"),
        (["sweep-b", "--b-range", "0:0.1:2", "--levels", "0"], "--levels"),
        (["evolve", "--samples", "0"], "--samples"),
        (["--B", "0", "fidelity"], "--B"),
        (["--E0", "0", "fidelity"], "--E0"),
        (["fidelity", "--samples", "0"], "--samples"),
        (["mitigate", "--samples", "0"], "--samples"),
        (["gate", "--mode", "labframe", "--tol", "1e-3"], "--tol"),
        (["gate", "--tol", "5", "--leakage"], "--tol"),
        (["gate", "--tol", "nan"], "--tol"),
        (["evolve", "--rabi", "0"], "--rabi (or --E0)"),
        (["--E0", "0", "evolve"], "--rabi (or --E0)"),
        (["evolve", "--rabi", "nan"], "--rabi"),
        (["evolve", "--detuning", "inf"], "--detuning"),
        (["evolve", "--phase", "nan"], "--phase"),
        (["evolve", "--duration", "nan"], "--duration"),
        (["evolve", "--duration=-1e-9"], "--duration"),
        (["evolve", "--three-level", "--rabi=-1e9", "--duration=1e-9"], "--rabi"),
        (["evolve", "--three-level", "--duration", "1e300"], "--duration"),
        (["fidelity", "--range", "0:0.5:3"], "--range"),
        (["fidelity", "--range=-0.2:0:3"], "--range"),
        (["mitigate", "--delta-b", "0.5"], "--delta-b"),
        (["mitigate", "--delta-e", "nan"], "--delta-e"),
        (["mitigate", "--sweep", "B0", "--b0-range", "0:0.9:6"], "--b0-range"),
        (["mitigate", "--sweep", "B0", "--b0-range", "0.9:0.4:6"], "--b0-range"),
        (["mitigate", "--spacing", "linear", "--e0-range", "0:100:3"], "--e0-range"),
        (["--E0", "0", "mitigate", "--sweep", "B0"], "--E0"),
        (["window", "--scan-max", "-1"], "--scan-max"),
        (["window", "--scan-max", "nan"], "--scan-max"),
        (["gate", "--gate", "phase:1e300"], "--gate"),
        (["gate", "--gate", "prep:4,0"], "--gate"),
        (["fidelity", "--gate", "phase:-1"], "--gate"),
        (["--E0", "0", "gate"], "--E0"),
        (["--E0", "0", "gate", "--gate", "prep:1.2,0.7"], "--E0"),
        (["potential", "--E-static", "nan"], "--E-static"),
        (["sweep-b", "--b-range=-1:1:3"], "--b-range"),
        (["sweep-b", "--b-range", "1:1:3"], "--b-range"),
        (["mitigate", "--e0-range", "-1:5:3"], "--e0-range with log spacing needs positive"),
        (["sweep-b", "--b-range", "-1:1:3"], "--b-range must be non-negative"),
        (["evolve", "--three-level", "--duration", "1e12"], "--duration must span fewer than 2^63"),
        # endpoints a few ulps apart pass the endpoint rule and repeat grid values
        (["sweep-b", "--b-range", "0:5e-324:3"], "--b-range must be non-negative and monotone"),
        (["mitigate", "--spacing", "linear", "--e0-range", "1:1.0000000000000002:5"],
         "--e0-range must be positive and increasing"),
    ])
    def test_malformed_spec_is_config_error(self, tmp_path, capsys, args, name):
        code, out = run(["--preset", "fig5", *args], tmp_path, "out")
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {name}")
        assert not out.exists()

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_range_bound_is_inclusive(self, tmp_path, capsys, sign):
        # errors.MAX_RELATIVE_ERROR = 0.1 is accepted, the next double past it is not
        past = repr(math.nextafter(0.1, 1.0))
        for edge, exit_code in (("0.1", 0), (past, 2)):
            spec = f"{sign}{edge}:0:2" if sign else f"0:{edge}:2"
            code, _ = run(["--preset", "fig5", "fidelity", f"--range={spec}", "--samples", "10"],
                          tmp_path, edge)
            assert code == exit_code, spec
        assert capsys.readouterr().err.strip().endswith(
            f"--range must be finite and in [-0.1, 0.1], got {sign}{past}")

    def test_negative_value_with_exponent_is_a_value(self, tmp_path):
        # argparse's own pattern has no exponent, so it read -5e-3 as an option
        common = ["--preset", "fig5", "mitigate", "--samples", "50"]
        assert run([*common, "--delta-b", "-5e-3"], tmp_path, "spaced")[0] == 0
        assert run([*common, "--delta-b=-5e-3"], tmp_path, "joined")[0] == 0
        assert ((tmp_path / "spaced" / "mitigate.csv").read_bytes()
                == (tmp_path / "joined" / "mitigate.csv").read_bytes())

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
        code, out = run(["--preset", "fig5", "fidelity", "--range", "-0.01:0.01:5",
                         "--samples", "50"], tmp_path)
        assert code == 0
        _, data = read_csv(out / "fidelity.csv")
        assert [float(row[0]) for row in data] == np.linspace(-0.01, 0.01, 5).tolist()

    @pytest.mark.parametrize("args", [
        ["--mass-ratio", "1e-300", "potential"],
        ["--r", "1e-150", "--R", "2e-150", "potential"],
        ["--r", "1e150", "--R", "2e150", "potential"],
        ["--r", "1e160", "--R", "2e160", "potential"],
        ["--r", "1e300", "--R", "1e301", "spectrum"],
    ])
    def test_geometry_past_the_double_range_is_config_error(self, tmp_path, capsys, args):
        # r^2, m* r^2 or the energy scale would underflow or overflow
        code, out = run(args, tmp_path, "out")
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(
            "error: invalid configuration: --r, --R, --mass-ratio: ")
        assert not out.exists()

    @pytest.mark.parametrize("args, exception", [
        (["--r", "1e-100", "--R", "2e-100"], "float division by zero"),
        (["--r", "1e100", "--R", "2e100", "--mass-ratio", "1e-250"], "Numerical result out of range"),
    ])
    def test_closed_form_arithmetic_error_is_runtime_error(self, tmp_path, capsys, args,
                                                           exception):
        # a geometry inside the double range whose (R - r)^4 underflows or overflows
        code, out = run([*args, "qubit-params"], tmp_path, "out")
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and exception in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["--preset", "fig5", "evolve", "--rabi", "-1e9", "--duration", "1e-9"],
        ["evolve", "--rabi", "1e9", "--duration", "1e9"],
    ])
    def test_rwa_evolve_builds_no_lab_frame_drive(self, tmp_path, capsys, args):
        # a negative Rabi rate is a phase flip, and the RWA rotation has no drive periods
        code, out = run([*args, "--samples", "5"], tmp_path)
        assert code == 0, capsys.readouterr().err
        header, data = read_csv(out / "trajectory.csv")
        assert header == ["t", "x", "y", "z", "p0", "p1"] and len(data) == 5

    def test_negative_radius_with_exponent_is_config_error(self, tmp_path, capsys):
        code, out = run(["--r", "-3.5e-8", "potential"], tmp_path, "out")
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "--r," in err[0] and "got -3.5e-08" in err[0]
        assert not out.exists()


class TestArtifacts:
    def test_csv_writer_spells_each_kind_once(self):
        rows = [(1, True, 0.5), (np.int64(-2), np.bool_(False), np.float64(0.1)), (0, False, 0)]
        assert cli._csv(["a", "b", "c"], rows, "note") == (
            "# note\na,b,c\n1,true,0.5\n-2,false,0.1\n0,false,0\n")
        assert cli._csv(["x"], [(np.float32(0.5),), (1e-300,)]) == "x\n0.5\n1e-300\n"
        for value in (math.inf, -np.inf, np.float64("nan")):
            with pytest.raises(ValueError, match="^CSV values must be finite"):
                cli._csv(["x"], [(1.0,), (value,)])

    def test_potential_profile_symmetric(self, tmp_path):
        code, out = run(["--preset", "fig3a", "--n-points", "64", "potential"], tmp_path)
        assert code == 0
        header, data = read_csv(out / "potential.csv")
        assert header == ["theta", "V_bare", "V_E", "V_B", "V_total"]
        totals = [float(r[4]) for r in data]
        assert totals[1:] == pytest.approx(totals[1:][::-1], rel=1e-12)
        assert (out / "potential.csv.manifest.json").exists()

    def test_manifest_contents(self, tmp_path):
        code, out = run(["--preset", "fig3a", "--n-points", "64", "potential"], tmp_path)
        manifest = json.loads((out / "potential.csv.manifest.json").read_text())
        assert manifest["command"] == "potential"
        assert manifest["config"]["r_minor"] == pytest.approx(3.5e-8)
        assert "energy_J" in manifest["unit_scales"]
        assert "created" in manifest
        assert manifest["software_version"]

    def test_qubit_params_reports_both_sources(self, tmp_path):
        code, out = run(["--preset", "fig5", "qubit-params"], tmp_path)
        assert code == 0
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
        code, out = run(["--preset", "fig5", "gate", "--gate", "hadamard"], tmp_path)
        assert code == 0
        payload = json.loads((out / "gate.json").read_text())
        assert payload["fidelity_to_ideal"] >= 1.0 - 1e-9
        assert len(payload["sequence"]["pulses"]) == 1

    def test_gate_prep(self, tmp_path):
        code, out = run(["--preset", "fig5", "gate", "--gate", "prep:1.2,0.7"], tmp_path)
        assert code == 0
        payload = json.loads((out / "gate.json").read_text())
        assert payload["fidelity_to_ideal"] >= 1.0 - 1e-9

    def test_evolve_trajectory(self, tmp_path):
        code, out = run(
            ["--preset", "fig5", "evolve", "--samples", "20", "--phase", "0.5"], tmp_path
        )
        assert code == 0
        header, data = read_csv(out / "trajectory.csv")
        assert header == ["t", "x", "y", "z", "p0", "p1"]
        assert len(data) == 20
        first = [float(x) for x in data[0]]
        assert first[1:4] == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)
        last = [float(x) for x in data[-1]]
        assert abs(last[3]) < 1e-9  # default duration pi/(2 Omega) lands on equator

    def test_spectrum_bound_count(self, tmp_path):
        code, out = run(["--preset", "fig3a", "spectrum", "--m", "0"], tmp_path)
        assert code == 0
        header, data = read_csv(out / "spectrum.csv")
        bound = [r for r in data if r[4] == "true"]
        assert len(bound) == 1

    def test_spectrum_dump_wavefunctions(self, tmp_path):
        code, out = run(["--preset", "fig3a", "--n-points", "256", "spectrum", "--levels", "4",
                         "--dump-wavefunctions"], tmp_path)
        assert code == 0

        def no_constant(name):
            raise ValueError(f"non-strict JSON constant {name}")

        payload = json.loads((out / "spectrum_states.json").read_text(),
                             parse_constant=no_constant)
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
        code, out = run(
            ["--preset", "fig3a", "--n-points", "256", "sweep-b",
             "--b-range", "0:0.1:3", "--m-list", "0,1", "--levels", "2"],
            tmp_path,
        )
        assert code == 0
        header, data = read_csv(out / "sweep_b.csv")
        assert header == ["B", "m", "n", "energy", "bound", "localization"]
        assert len(data) == 3 * 2 * 2

    def test_window_fig3a(self, tmp_path):
        code, out = run(["--preset", "fig3a", "--n-points", "512", "window"], tmp_path)
        assert code == 0
        payload = json.loads((out / "window.json").read_text())
        assert payload["B_min_T"] < 0.45 < payload["B_max_T"]

    def test_fidelity_scan_shape(self, tmp_path):
        code, out = run(
            ["--preset", "fig5", "fidelity", "--scan", "dB",
             "--range", "0:0.01:3", "--samples", "400"],
            tmp_path,
        )
        assert code == 0
        header, data = read_csv(out / "fidelity.csv")
        assert header == ["delta", "mean_infidelity", "max_infidelity"]
        means = [float(r[1]) for r in data]
        assert means[0] == pytest.approx(0.0, abs=1e-12)
        assert means[2] > means[1] > 0.0

    def test_mitigate(self, tmp_path):
        code, out = run(
            ["--preset", "fig5", "mitigate", "--e0-range", "100:10000:3",
             "--samples", "400"],
            tmp_path,
        )
        assert code == 0
        header, data = read_csv(out / "mitigate.csv")
        means = [float(r[1]) for r in data]
        assert means[-1] <= means[0]
        manifest = json.loads((out / "mitigate.csv.manifest.json").read_text())
        assert manifest["results"]["argmin_E0"] == pytest.approx(float(data[-1][0]))


class TestWarningsInManifest:
    def test_physics_warning_recorded_once(self, tmp_path, capsys):
        code, out = run(["--preset", "fig3b", "--B", "0", "qubit-params"], tmp_path)
        assert code == 0
        assert "UserWarning: zero-point angular spread" in capsys.readouterr().err
        manifest = json.loads((out / "qubit_params.json.manifest.json").read_text())
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
        assert done.returncode == 0, done.stderr
        assert "Traceback" not in done.stderr
        manifest = json.loads((tmp_path / "qubit_params.json.manifest.json").read_text())
        assert [w for w in manifest["warnings"] if w.startswith("zero-point angular spread")]

    def test_window_exit_flags_recorded(self, tmp_path, capsys):
        code, out = run(
            ["--preset", "fig5", "--n-points", "256", "fidelity", "--check-window",
             "--B", "0.95", "--range", "0:0.05:2", "--samples", "50"],
            tmp_path,
        )
        assert code == 0
        assert "UserWarning: perturbed field" in capsys.readouterr().err
        manifest = json.loads((out / "fidelity.csv.manifest.json").read_text())
        assert len(manifest["warnings"]) == 1
        assert "leaves the two-bound-state window" in manifest["warnings"][0]


class TestReproducibility:
    def test_identical_config_identical_bytes(self, tmp_path):
        args = ["--preset", "fig5", "--seed", "42", "fidelity",
                "--scan", "dB", "--range", "0:0.005:3", "--samples", "500"]
        _, out_a = run(args, tmp_path, "a")
        _, out_b = run(args, tmp_path, "b")
        assert (out_a / "fidelity.csv").read_bytes() == (out_b / "fidelity.csv").read_bytes()

    def test_every_artifact_has_manifest(self, tmp_path):
        run(["--preset", "fig5", "qubit-params"], tmp_path)
        run(["--preset", "fig5", "gate"], tmp_path)
        artifacts = [
            p for p in tmp_path.iterdir()
            if p.suffix in (".csv", ".json") and not p.name.endswith(".manifest.json")
        ]
        assert artifacts
        for artifact in artifacts:
            assert artifact.with_suffix(artifact.suffix + ".manifest.json").exists()


class TestNewSurfaces:
    def test_gate_tol_reaches_leakage_probe(self, tmp_path, monkeypatch):
        seen = []

        def probe(*args, tol, **kwargs):
            seen.append(tol)
            return 0.0

        monkeypatch.setattr(dynamics, "leakage_probe", probe)
        code, _ = run(["--preset", "fig5", "gate", "--gate", "prep:1.2,0.7", "--leakage",
                       "--tol", "1e-10"], tmp_path)
        assert code == 0
        assert seen == [1e-10]

    def test_phase_gate_leakage_needs_no_probe(self, tmp_path, monkeypatch):
        # a virtual phase gate has no pulse, so nothing can leak
        def probe(*args, **kwargs):
            raise AssertionError("leakage_probe called for a pulse-free sequence")

        monkeypatch.setattr(dynamics, "leakage_probe", probe)
        code, out = run(["--preset", "fig5", "gate", "--gate", "phase:1.0", "--leakage"], tmp_path)
        assert code == 0
        assert '"max_leakage": 0.0' in (out / "gate.json").read_text()

    def test_cli_import_leaves_scipy_integrate_unloaded(self):
        # scipy.integrate is imported at the first lab-frame integration only
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = "import sys, torusqubit.cli; print('scipy.integrate' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout.strip() == "False"

    def test_cli_import_loads_no_scipy(self):
        assert scipy_modules_after("import torusqubit.cli") == []

    @pytest.mark.parametrize("args", [
        ["gate", "--mode", "labframe", "--leakage"],
        ["evolve", "--three-level"],
    ])
    def test_run_without_eigensolve_loads_no_scipy(self, tmp_path, args):
        argv = ["--preset", "fig5", *args, "--output-dir", str(tmp_path)]
        code = f"import torusqubit.cli\nassert torusqubit.cli.main({argv!r}) == 0"
        # numpy.ma costs a cold run 14 ms, and np.unique imports it
        assert modules_after(code, "scipy", "numpy.ma") == []

    @pytest.mark.parametrize("args", [
        ["spectrum"],
        ["sweep-b", "--b-range", "0:1:3", "--m-list", "0,1"],
        ["window"],
    ])
    def test_eigensolve_run_loads_no_scipy(self, tmp_path, args):
        argv = ["--preset", "fig3a", *args, "--output-dir", str(tmp_path)]
        code = f"import torusqubit.cli\nassert torusqubit.cli.main({argv!r}) == 0"
        assert scipy_modules_after(code) == []

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
        assert scipy_modules_after(code) == []

    def test_cli_import_loads_model_alone(self):
        assert modules_after("import torusqubit.cli", "torusqubit", "scipy") == [
            "torusqubit", "torusqubit.cli", "torusqubit.model"]

    @pytest.mark.parametrize("args, layers", [
        (["potential"], ["potential"]),
        (["spectrum"], ["potential", "spectral"]),
        (["sweep-b", "--b-range", "0:1:3"], ["potential", "spectral"]),
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
    ])
    def test_subcommand_loads_only_its_layers(self, tmp_path, args, layers):
        # each subcommand imports the layers it runs, and none loads scipy;
        # every one that builds arrays loads numpy, and qubit-params does not
        argv = ["--preset", "fig5", *args, "--output-dir", str(tmp_path)]
        code = f"import torusqubit.cli\nassert torusqubit.cli.main({argv!r}) == 0"
        expected = ["torusqubit", "torusqubit.cli", "torusqubit.model",
                    *(f"torusqubit.{layer}" for layer in layers)]
        loaded = modules_after(code, "torusqubit", "scipy", "numpy")
        assert [m for m in loaded if not m.startswith("numpy")] == sorted(expected)
        assert ("numpy" in loaded) == (args[0] != "qubit-params")

    @pytest.mark.parametrize("args", [
        ["fidelity", "--range", "0:0.5:3"],
        ["fidelity", "--samples", "0"],
        ["mitigate", "--delta-b", "0.5"],
        ["mitigate", "--samples", "0"],
        ["mitigate", "--sweep", "B0", "--b0-range", "0:1:3"],
        ["mitigate", "--spacing", "linear", "--e0-range", "0:10:3"],
        ["gate", "--tol", "1"],
        ["sweep-b", "--b-range", "0:1"],
        ["sweep-b", "--b-range", "-1:1:3"],
        ["sweep-b", "--levels", "0"],
        ["spectrum", "--levels", "0"],
        ["window", "--scan-max", "-1"],
        ["evolve", "--samples", "1"],
        ["potential", "--E-static", "inf"],
    ], ids=" ".join)
    def test_option_error_loads_no_layer(self, tmp_path, args):
        # an option's bounds live in model, so it is checked before the
        # subcommand imports its first layer or numpy
        argv = ["--preset", "fig5", *args, "--output-dir", str(tmp_path)]
        code = f"import torusqubit.cli\nassert torusqubit.cli.main({argv!r}) == 2"
        assert modules_after(code, "torusqubit", "numpy") == [
            "torusqubit", "torusqubit.cli", "torusqubit.model"]

    @pytest.mark.parametrize("args, exit_code", [
        (["--preset", "fig5", "qubit-params"], 0),
        (["--preset", "fig3b", "--B", "0", "qubit-params"], 0),  # the warning path
        (["--help"], 0),
        (["spectrum", "--help"], 0),
        (["--n-points", "10", "spectrum"], 2),
        (["--preset", "fig9", "fidelity"], 2),
    ])
    def test_scalar_run_loads_no_numpy(self, tmp_path, args, exit_code):
        # the reduction is scalar algebra on math, and help and configuration
        # errors end before any layer is imported
        argv = [*args, "--output-dir", str(tmp_path)]
        code = ("import torusqubit.cli\n"
                f"try:\n    code = torusqubit.cli.main({argv!r})\n"
                "except SystemExit as exc:\n    code = exc.code\n"
                f"assert code == {exit_code}, code")
        assert modules_after(code, "numpy") == []

    def test_evolve_three_level(self, tmp_path):
        code, out = run(
            ["--preset", "fig5", "evolve", "--three-level", "--samples", "25"], tmp_path
        )
        assert code == 0
        header, data = read_csv(out / "trajectory.csv")
        assert header == ["t", "x", "y", "z", "p0", "p1", "p2"]
        assert len(data) == 25
        p2 = [float(r[6]) for r in data]
        assert max(p2) < 1e-3  # leakage stays small at the operating point

    def test_mitigate_b0_sweep(self, tmp_path):
        code, out = run(
            ["--preset", "fig5", "--E0", "1000", "mitigate", "--sweep", "B0",
             "--b0-range", "0.4:0.6:3", "--delta-b", "0", "--delta-e", "0.005",
             "--samples", "300"],
            tmp_path,
        )
        assert code == 0
        header, data = read_csv(out / "mitigate.csv")
        assert header == ["B0", "mean_infidelity", "max_infidelity"]
        means = [float(r[1]) for r in data]
        assert means[0] == pytest.approx(means[-1], rel=1e-9)


README_ERROR_STUDY = {
    "fidelity-dB-11": ["--preset", "fig5", "fidelity", "--scan", "dB", "--range", "0:0.01:11",
                       "--samples", "10000"],
    "fidelity-dB-21": ["--preset", "fig5", "fidelity", "--scan", "dB", "--range", "0:0.01:21"],
    "fidelity-dE-21": ["--preset", "fig5", "fidelity", "--scan", "dE", "--range", "0:0.01:21"],
    "mitigate-E0-7": ["--preset", "fig5", "mitigate", "--delta-b", "0.005",
                      "--e0-range", "100:10000:7"],
    "mitigate-E0": ["--preset", "fig5", "mitigate", "--delta-b", "0.005"],
    "mitigate-B0": ["--preset", "fig5", "--E0", "1000", "mitigate", "--sweep", "B0",
                    "--delta-e", "0.005", "--delta-b", "0"],
}


class TestExactHaarMean:
    @pytest.mark.parametrize("args, zero_error_rows", [
        (["fidelity", "--range", "0:0.01:3", "--samples", "100"], 1),
        (["mitigate", "--delta-b", "0", "--samples", "100"], 7),
    ])
    def test_oracles_lie_in_unit_interval(self, tmp_path, args, zero_error_rows):
        # at zero error M = U^dag U carries roundoff, which once gave -4.4e-16
        code, out = run(["--preset", "fig5", *args], tmp_path)
        assert code == 0
        results = json.loads((out / f"{args[0]}.csv.manifest.json").read_text())["results"]
        for key in ("haar_mean_exact", "worst_case_exact"):
            assert all(0.0 <= value <= 1.0 for value in results[key])
            assert all(value <= 1e-15 for value in results[key][:zero_error_rows])

    @pytest.mark.parametrize("case", sorted(README_ERROR_STUDY))
    def test_manifest_row_matches_monte_carlo(self, case, tmp_path, monkeypatch, capsys):
        # the README error-study commands, each row recomputed by the public
        # single-point average with its per-sample values kept: the data file
        # holds that report's mean and max bit for bit, and the manifest's
        # exact Haar mean sits within 5 standard errors of the mean
        original, sweeps = errors.field_error_sweep, []

        def recording(*args, **kwargs):
            sweeps.append((args, kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(errors, "field_error_sweep", recording)
        args = README_ERROR_STUDY[case]
        command = "fidelity" if "fidelity" in args else "mitigate"
        code, out = run(args, tmp_path)
        assert code == 0
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
            stderr = np.std(report.per_sample) / np.sqrt(report.n_samples)
            assert abs(report.mean_infidelity - value) <= 5.0 * stderr + 1e-15
            # no input does worse than the exact worst case 1 - |Tr M|^2 / 4
            assert float(row[2]) == report.max_infidelity <= bound + 1e-15
