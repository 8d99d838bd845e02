"""Command-line front end: config handling, subcommands, reproducible artifacts.

Each subcommand computes its machine-readable data files (CSV or JSON,
serialized by `_csv` or `_json_dumps`, which both refuse NaN and infinities)
and returns them; `main` alone writes them, each with a sidecar manifest
recording the resolved configuration, the subcommand's options, software
version, unit scales, and the run's warnings.  Identical config and seed give
byte-identical data files; timestamps live only in the manifest.  Each
subcommand imports the layers it runs, so a cold process loads only those,
and checks each option against the bounds in `model` before its first layer
import.  Checks that need a layer follow its import, and `_named` turns the
layer's ValueError into one naming the option: `--gate`, read by
`control.Gate.parse`; a driven gate's Rabi rate, from its synthesizer, in
`gate` and at each point of `fidelity` and `mitigate`; `evolve`'s default
Rabi rate and duration, from the reduction; and, from `dynamics`, `evolve`'s
rotation angle and the length of a lab-frame drive in `evolve` or `gate`.
Importing this module loads `model` and no numpy; numpy is imported where
arrays are made, so `qubit-params` (scalar algebra on `math`), `--help` and
every configuration error run without it.  `main` sets
OPENBLAS_THREAD_TIMEOUT=4 unless it is set, so OpenBLAS's idle worker
threads sleep at once rather than spin 0.1 s of CPU after each wake-up.

`process_main`, the entry of `python -m torusqubit.cli` and of the
`torusqubit` script, runs `main` with the garbage collector off and freezes
the heap before the interpreter exits.  A run makes no reference cycles that
grow with its input, and at exit CPython would otherwise collect every live
object, numpy's tens of thousands among them, in a heap the OS is about to
drop.  `main` called in-process, by the tests or a library user, leaves the
collector as it was.

PRESETS names the geometries used throughout, fig3a and fig3b, and the
operating point fig5, which is fig3a at B=0.45 T and E0=100 V/m.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import re
import sys
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .model import (CLOSED_FORM, DEFAULT_LEVELS, DEFAULT_LOC_THRESHOLD, DEFAULT_SCAN_MAX,
                    DEFAULT_TOL, MAX_RELATIVE_ERROR, NUMERICAL_TAYLOR, TOL_RANGE, Discretization,
                    FieldConfig, TorusGeometry, UnitSystem, check_count, check_finite,
                    check_loc_threshold, check_positive, check_source)

if TYPE_CHECKING:
    import numpy as np

    from .errors import InfidelityReport
    from .reduction import QubitParameters

ANGSTROM = 1e-10

_FIG3A = {"r_minor": 350 * ANGSTROM, "R_major": 900 * ANGSTROM}
PRESETS = {
    "fig3a": _FIG3A,
    "fig3b": {**_FIG3A, "R_major": 3600 * ANGSTROM},
    "fig5": {**_FIG3A, "B": 0.45, "E0": 100.0},
}

@dataclass
class RunConfig:
    """Resolved run configuration shared by all subcommands."""

    r_minor: float = _FIG3A["r_minor"]
    R_major: float = _FIG3A["R_major"]
    mass_ratio: float = TorusGeometry.effective_mass_ratio
    B: float = 0.0
    E0: float = 100.0
    n_points: int = Discretization.n_points
    stencil_order: int = Discretization.stencil_order
    seed: int = 12345
    source: str = NUMERICAL_TAYLOR
    loc_threshold: float = DEFAULT_LOC_THRESHOLD

    def geometry(self) -> TorusGeometry:
        return TorusGeometry(self.r_minor, self.R_major, self.mass_ratio)

    def discretization(self) -> Discretization:
        return Discretization(self.n_points, self.stencil_order)

    def qubit(self, B: float) -> QubitParameters:
        """Two-level parameters at field B from the configured coefficient
        route; an errors.QubitFactory."""
        from .reduction import qubit_for

        return qubit_for(self.geometry(), B, self.source)


_CONFIG_KEYS = {"preset", *(field.name for field in dataclasses.fields(RunConfig))}
_FLAG_DESTS = {"r_minor": "r", "R_major": "R"}  # flags not named after their key
_KINDS = {int: "a non-negative integer", float: "a number", str: "a string"}


class ConfigError(ValueError):
    pass


def load_config(args: argparse.Namespace) -> RunConfig:
    """defaults <- preset <- config file <- CLI flags; one ConfigError lists every problem."""
    merged: dict = {}
    file_preset = None
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            raw = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"--config {config_path}: {exc.strerror or exc}") from None
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"--config {config_path}: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"--config {config_path} must hold a JSON object")
        unknown = set(raw) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"--config {config_path}: unknown config keys: {sorted(unknown)}")
        file_preset = raw.pop("preset", None)
        merged.update(raw)

    flag_preset = getattr(args, "preset", None)
    preset = flag_preset or file_preset
    if preset is not None:
        if not isinstance(preset, str) or preset not in PRESETS:
            where = "--preset" if flag_preset else f"--config {config_path}, --preset"
            raise ConfigError(f"{where}: unknown preset {preset!r}; choose from {sorted(PRESETS)}")
        merged = {**PRESETS[preset], **merged}

    for field in dataclasses.fields(RunConfig):
        value = getattr(args, _FLAG_DESTS.get(field.name, field.name), None)
        if value is not None:
            merged[field.name] = value

    config = RunConfig(**merged)
    problems = []
    for keys, check in ((("r_minor", "R_major", "mass_ratio"), config.geometry),
                        (("n_points", "stencil_order"), config.discretization),
                        (("B", "E0"), lambda: FieldConfig(B=config.B, E0=config.E0)),
                        (("loc_threshold",), lambda: check_loc_threshold(config.loc_threshold)),
                        (("source",), lambda: check_source(config.source)),
                        (("seed",), lambda: None)):  # a seed is any non-negative integer
        try:
            for key in keys:  # the type of the key's default; a real key takes an integer too
                kind, value = type(getattr(RunConfig, key)), getattr(config, key)
                kinds = (int, float) if kind is float else kind
                if isinstance(value, bool) or not isinstance(value, kinds) or kind is int and value < 0:
                    raise TypeError(f"{key} must be {_KINDS[kind]}, got {value!r}")
                setattr(config, key, kind(value))  # so a real key is a float, however spelled
            check()
        except (TypeError, ValueError, OverflowError) as exc:
            flags = ", ".join("--" + _FLAG_DESTS.get(key, key).replace("_", "-") for key in keys)
            problems.append(f"{flags}: {exc}")
    if problems:
        raise ConfigError("invalid configuration: " + "; ".join(problems))
    return config


def parse_range(spec: str, spacing: str = "linear", arg: str = "range",
                bound: float = math.inf, order: str | None = None) -> np.ndarray:
    """Parse "a:b:n" into n values in [-bound, bound], linearly or (spacing
    "log") geometrically spaced; arg names the option in error messages.
    order, "non-negative and monotone" or "positive and increasing", is checked
    on a and b before numpy loads, then on the grid, which must be strictly monotone."""
    try:
        lo_s, hi_s, n_s = spec.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError as exc:
        raise ConfigError(f"{arg} must look like a:b:n, got {spec!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"{arg} endpoints must be finite, got {spec!r}")
    if n < 2:
        raise ConfigError(f"{arg} needs at least 2 points, got {spec!r}")
    if spacing == "log" and (lo <= 0 or hi <= 0):
        raise ConfigError(f"{arg} with log spacing needs positive endpoints, got {spec!r}")
    _option(check_finite, max(lo, hi, key=abs), arg, -bound, bound)  # lo and hi are the extremes
    ordered = {None: True, "non-negative and monotone": min(lo, hi) >= 0 and lo != hi,
               "positive and increasing": 0 < lo < hi}
    misordered = ConfigError(f"{arg} must be {order}, got {spec!r}")
    if not ordered[order]:
        raise misordered
    import numpy as np

    values = np.geomspace(lo, hi, n) if spacing == "log" else np.linspace(lo, hi, n)
    if order is not None and not np.all(np.diff(values) * math.copysign(1.0, hi - lo) > 0):
        raise misordered  # endpoints a few ulps apart can repeat values
    return values


def _option(rule, value, arg: str, *bounds):
    """rule(value, arg, *bounds), a range rule of model, with its ValueError
    re-raised as a ConfigError naming the option arg."""
    try:
        return rule(value, arg, *bounds)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _named(arg: str, call, *args, **kwargs):
    """call(*args, **kwargs), its ValueError re-raised as a ConfigError naming the option arg."""
    try:
        return call(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{arg}: {exc}") from None


@dataclass(frozen=True)
class Output:
    """What a subcommand produced: data files (name -> text), the results
    recorded in their manifests, and a summary line that main prints once
    they are written."""

    files: dict[str, str]
    results: dict = dataclasses.field(default_factory=dict)
    summary: str | None = None


def _json_dumps(payload: dict) -> str:
    """The one serializer for JSON data files and manifests.  NaN and
    infinities raise ValueError: strict JSON has no spelling for them."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _csv(header: list[str], rows, comment: str | None = None) -> str:
    """The one serializer for CSV data files: the "# comment" line, if any, the
    header, then one line per row of integers, booleans (true/false) and reals
    (repr(float(v))).  NaN and infinities raise ValueError, as in _json_dumps,
    naming the column and, as the row's point, its first field."""
    import numpy as np

    def line(row) -> str:
        fields = []
        for column, value in zip(header, row, strict=True):
            if isinstance(value, (int, np.integer, np.bool_)):  # digits, or true/false
                fields.append(str(value).lower())
            elif math.isfinite(value := float(value)):
                fields.append(repr(value))
            else:
                at = f" at {header[0]}={fields[0]}" if fields else ""
                raise ValueError(f"CSV column {column} must be finite{at}, got {value!r}")
        return ",".join(fields)

    lines = [] if comment is None else [f"# {comment}"]
    lines.append(",".join(header))
    lines += map(line, rows)
    return "\n".join(lines) + "\n"


def write_artifacts(
    out_dir: Path, command: str, config: RunConfig, output: Output, raised: list[str],
    options: dict,
) -> None:
    """Write every data file with its sidecar manifest.

    The manifest is serialized before the first write, so a value JSON
    cannot hold leaves no artifact behind.
    """
    units = UnitSystem.for_geometry(config.geometry())
    manifest = _json_dumps({
        "command": command,
        "config": dataclasses.asdict(config),
        "options": options,
        "software_version": __version__,
        "created": datetime.now(timezone.utc).isoformat(),
        "unit_scales": {
            "energy_J": units.energy_scale,
            "length_m": units.length_scale,
            "time_s": units.time_scale,
        },
        "warnings": raised,
        "results": output.results,
    })
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in output.files.items():
            path = out_dir / name
            path.write_text(text, encoding="utf-8")
            path.with_name(name + ".manifest.json").write_text(manifest, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"--output-dir: {exc}") from None
    for name in output.files:
        print(f"wrote {out_dir / name}")


# ---------------------------------------------------------------- subcommands


def _level_table(config: RunConfig, fields, m_list: list[int], levels: int):
    """spectral.sweep_field over the fields (T) and m sectors, and its level CSV."""
    from .spectral import sweep_field

    spectra = sweep_field(config.geometry(), m_list, fields, config.discretization(),
                          k=levels, loc_threshold=config.loc_threshold)
    units = UnitSystem.for_geometry(config.geometry())
    rows = [(spec.params.B, state.m_orbital, state.level_index,
             units.from_internal(state.energy, "energy"), state.bound, state.localization)
            for spec in spectra for state in spec.states]
    return spectra, _csv(["B", "m", "n", "energy", "bound", "localization"], rows,
                         "B in T, energy in J")


def cmd_potential(args, config: RunConfig) -> Output:
    """The potential terms on the solver's grid, in the internal units its comment names."""
    e_static = _option(check_finite, args.E_static, "--E-static")
    import numpy as np

    from .potential import PotentialParams, internal_terms

    params = PotentialParams(config.geometry(), config.B, e_static, m_orbital=args.m)
    theta = config.discretization().theta
    with np.errstate(over="ignore", invalid="ignore"):  # _csv refuses an inf or NaN
        bare, elec, mag = internal_terms(theta, params)
        rows = zip(theta, bare, elec, mag, bare + elec + mag)
    units = UnitSystem.for_geometry(params.geom)
    comment = (f"internal units: energy_scale_J={units.energy_scale!r},"
               f" length_scale_m={units.length_scale!r}, time_scale_s={units.time_scale!r}")
    return Output({"potential.csv": _csv(["theta", "V_bare", "V_E", "V_B", "V_total"], rows,
                                         comment)})


def cmd_spectrum(args, config: RunConfig) -> Output:
    """The level table of sweep-b at the one field --B and the one sector --m."""
    levels = _option(check_count, args.levels, "--levels", 1, config.n_points)
    [spec], table = _level_table(config, [config.B], [args.m], levels)
    units = UnitSystem.for_geometry(config.geometry())
    files = {"spectrum.csv": table}
    if args.dump_wavefunctions:
        payload = {
            "theta": list(map(float, config.discretization().theta)),
            "states": [
                {
                    "m": s.m_orbital,
                    "n": s.level_index,
                    "energy_J": units.from_internal(s.energy, "energy"),
                    "bound": s.bound,
                    "localization": s.localization,
                    "wavefunction": list(map(float, s.wavefunction)),
                }
                for s in spec.states
            ],
        }
        files["spectrum_states.json"] = _json_dumps(payload)
    return Output(files, {"barrier_energy_J": units.from_internal(spec.barrier_energy, "energy")})


def cmd_sweep_b(args, config: RunConfig) -> Output:
    try:
        m_list = [int(m) for m in args.m_list.split(",")]
    except ValueError:
        raise ConfigError(f"--m-list must be comma-separated integers, got {args.m_list!r}") from None
    levels = _option(check_count, args.levels, "--levels", 1, config.n_points)
    values = parse_range(args.b_range, arg="--b-range", order="non-negative and monotone")
    return Output({"sweep_b.csv": _level_table(config, values, m_list, levels)[1]})


def cmd_window(args, config: RunConfig) -> Output:
    scan_max = _option(check_positive, args.scan_max, "--scan-max")
    from .spectral import initialization_window

    b_min, b_max = initialization_window(
        config.geometry(), config.discretization(),
        B_scan_max=scan_max, loc_threshold=config.loc_threshold,
    )
    payload = {"B_min_T": b_min, "B_max_T": b_max}
    return Output({"window.json": _json_dumps(payload)}, payload,
                  f"window: [{b_min:.4f}, {b_max:.4f}] T")


def cmd_qubit_params(args, config: RunConfig) -> Output:
    from .reduction import coefficients_for, qubit_parameters, rabi_frequency

    geom = config.geometry()
    # the closed form first: where both routes overflow, the error names its (e B)^2
    routes = {source: coefficients_for(geom, config.B, source)
              for source in (CLOSED_FORM, NUMERICAL_TAYLOR)}
    coeffs = routes[config.source]
    qubit = qubit_parameters(coeffs, geom, config.B)
    omega_rabi = rabi_frequency(qubit.mu_dipole, config.E0)
    payload = {
        "B_T": config.B,
        "E0_V_per_m": config.E0,
        "beta_sq": coeffs.beta_sq,
        "delta": coeffs.delta_anh,
        "epsilon": coeffs.epsilon_const,
        "omega_rad_per_s": qubit.omega,
        "alpha_J": qubit.alpha_anh,
        "mu_C_m": qubit.mu_dipole,
        "Omega_rad_per_s": omega_rabi,
        "anharmonicity_ratio": qubit.anharmonicity_ratio,
        "zero_point_spread": qubit.zero_point_spread,
        "default_source": config.source,
        "sources": {
            source: {"beta_sq": c.beta_sq, "delta": c.delta_anh, "epsilon": c.epsilon_const}
            for source, c in routes.items()
        },
    }
    return Output({"qubit_params.json": _json_dumps(payload)}, summary=(
        f"omega = {qubit.omega:.6e} rad/s, Omega(E0) = {omega_rabi:.6e} rad/s"))


def cmd_evolve(args, config: RunConfig) -> Output:
    _option(check_count, args.samples, "--samples", 2)  # a trajectory has a start and an end
    _option(check_finite, args.detuning, "--detuning")
    _option(check_finite, args.phase, "--phase")
    if args.rabi is not None and args.three_level:  # the ladder's field amplitude E0 is >= 0
        _option(check_finite, args.rabi, "--rabi (with --three-level)", 0.0)
    elif args.rabi is not None:
        _option(check_finite, args.rabi, "--rabi")
    if args.duration is not None:
        _option(check_finite, args.duration, "--duration", 0.0)
    import numpy as np

    from .dynamics import (PulseSpec, QuantumState, bloch, drive_field, ladder_trajectory,
                           trajectory)
    from .reduction import rabi_frequency

    qubit = config.qubit(config.B)
    omega_rabi = args.rabi if args.rabi is not None else _option(
        check_finite, rabi_frequency(qubit.mu_dipole, config.E0), "--rabi (or --E0)")
    duration, arg, length = args.duration, "--duration", "--duration"
    if duration is None:  # the Rabi rate sets the length, and the detuning the drive frequency
        duration = math.pi / (2.0 * _option(check_positive, omega_rabi, "--rabi (or --E0)"))
        arg = "--rabi (or --E0)"
        length = f"{arg}, --detuning: the default duration pi/(2 Omega)"
    # past the checks above, the rotation angle or the duration pi / (2 Omega) overflows
    pulse = _named(arg, PulseSpec, omega_rabi, args.detuning, args.phase, duration)
    if args.three_level:  # the lab-frame anharmonic ladder, which adds p2
        drive = drive_field(pulse, qubit)  # the propagation refuses 2^63 periods or more
        times, amplitudes = _named(length, ladder_trajectory, qubit, drive, duration, args.samples)
    else:
        times, amplitudes = trajectory(QuantumState.ground(), pulse, args.samples)
    populations = np.abs(amplitudes) ** 2
    rows = []
    for time, amp, pops in zip(times, amplitudes, populations):
        # Bloch point of the normalized projection onto the qubit subspace.
        # A two-level state is its own projection; it is not divided by its
        # norm, which differs from 1 by roundoff.
        projection = amp[:2] / math.sqrt(pops[0] + pops[1]) if amp.size == 3 else amp
        point = bloch(QuantumState(projection))
        rows.append((time, point.x, point.y, point.z, *pops))
    header = ["t", "x", "y", "z", *(f"p{i}" for i in range(populations.shape[1]))]
    return Output({"trajectory.csv": _csv(header, rows, "t in s")},
                  {"pulse": dataclasses.asdict(pulse)})


def cmd_gate(args, config: RunConfig) -> Output:
    _option(check_finite, args.tol, "--tol", *TOL_RANGE)
    from .control import Gate, gate_unitary
    from .dynamics import drive_field, leakage_probe, unitarity_drift

    gate = _named("--gate", Gate.parse, args.gate)
    qubit = config.qubit(config.B)
    # E0's Rabi rate under/overflows, or a lab-frame drive at it spans 2^63 periods or more
    seq = _named("--E0", gate.sequence, qubit, config.E0)
    unitary = _named("--E0", gate_unitary, seq, qubit, mode=args.mode, tol=args.tol)
    fidelity = gate.fidelity(unitary)
    payload = {
        "gate": args.gate,
        "mode": args.mode,
        "sequence": {
            "pulses": [dataclasses.asdict(p) for p in seq.pulses],
            "frame_phase": seq.frame_phase,
        },
        "unitary": [[[value.real, value.imag] for value in row] for row in unitary],
        "fidelity_to_ideal": fidelity,
    }
    if args.leakage:  # the worst pulse; a virtual phase gate has none and leaks nothing
        leakage = (_named("--E0", leakage_probe, qubit, drive_field(p, qubit), p.duration,
                          tol=args.tol) for p in seq.pulses)
        payload["max_leakage"] = max(leakage, default=0.0)
    # the propagation's loss of unitarity, past which the fidelity is clipped at 1
    return Output({"gate.json": _json_dumps(payload)},
                  {"unitarity_drift": unitarity_drift(unitary)},
                  summary=f"{args.gate} ({args.mode}): fidelity_to_ideal = {fidelity:.12f}")


def _error_study(args, config: RunConfig, key: str, point: dict, axis: str, grid: np.ndarray,
                 check_window: bool = False) -> tuple[Output, list[InfidelityReport]]:
    """Run errors.field_error_sweep over grid along the ErrorModel field axis.

    Returns the reports and the `<command>.csv` data file of
    `<key>,mean_infidelity,max_infidelity` rows, whose manifest lists each
    row's exact oracles.
    """
    from .control import Gate
    from .errors import field_error_sweep

    gate = _named("--gate", Gate.parse, args.gate)
    window = None
    if check_window:
        from .spectral import initialization_window

        window = initialization_window(config.geometry(), config.discretization(),
                                       loc_threshold=config.loc_threshold)
    synthesize = functools.partial(_named, "--e0-range" if axis == "E0" else "--E0", gate.sequence)
    reports = field_error_sweep(synthesize, config.qubit, point, axis, grid, args.samples,
                                config.seed, args.mode, window)
    rows = [(value, r.mean_infidelity, r.max_infidelity) for value, r in zip(grid, reports)]
    return Output({f"{args.command}.csv": _csv([key, "mean_infidelity", "max_infidelity"], rows)},
                  {"haar_mean_exact": [r.haar_mean_exact for r in reports],
                   "worst_case_exact": [r.worst_case_exact for r in reports]}), reports


def cmd_fidelity(args, config: RunConfig) -> Output:
    _option(check_count, args.samples, "--samples", 1)
    deltas = parse_range(args.range, arg="--range", bound=MAX_RELATIVE_ERROR)
    point = {"delta_B_rel": 0.0, "delta_E_rel": 0.0,
             "B0": _option(check_positive, config.B, "--B"),
             "E0": _option(check_positive, config.E0, "--E0")}
    axis = "delta_B_rel" if args.scan == "dB" else "delta_E_rel"
    return _error_study(args, config, "delta", point, axis, deltas, args.check_window)[0]


def cmd_mitigate(args, config: RunConfig) -> Output:
    _option(check_count, args.samples, "--samples", 1)
    for value, name in ((args.delta_b, "--delta-b"), (args.delta_e, "--delta-e")):
        _option(check_finite, value, name, -MAX_RELATIVE_ERROR, MAX_RELATIVE_ERROR)
    if args.sweep == "E0":  # the grid replaces E0, so B0 is the fixed reference
        spec, arg, spacing = args.e0_range, "--e0-range", args.spacing
        _option(check_positive, config.B, "--B")
    else:
        spec, arg, spacing = args.b0_range, "--b0-range", "linear"
        _option(check_positive, config.E0, "--E0")
    grid = parse_range(spec, spacing, arg=arg, order="positive and increasing")
    key = args.sweep
    point = {"delta_B_rel": args.delta_b, "delta_E_rel": args.delta_e, "B0": config.B,
             "E0": config.E0}
    output, reports = _error_study(args, config, key, point, key, grid)
    # the least exact Haar mean, roundoff apart: rows within 1e-9 of it tie, and the first wins
    least = min(r.haar_mean_exact for r in reports)
    best = next(i for i, r in enumerate(reports) if r.haar_mean_exact - least <= 1e-9 * least)
    value, mean = float(grid[best]), reports[best].mean_infidelity
    return dataclasses.replace(
        output, results={**output.results, f"argmin_{key}": value, "argmin_mean_infidelity": mean},
        summary=f"argmin: {key} = {value:.6g}, mean infidelity = {mean:.3e}")


# ----------------------------------------------------------------- arg parsing


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose parse errors are ConfigErrors, so main reports
    them as one line and exit code 2; subparsers inherit the class.

    An argument starting "-DIGIT" or "-.DIGIT" is a value, as in `--delta-b -5e-3`
    or `--range -0.01:0.01:5`: no option name starts so."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message: str):
        raise ConfigError(message.removeprefix("argument "))


def build_parser() -> argparse.ArgumentParser:
    # global options live on a parent parser shared with every subcommand so
    # they are accepted both before and after the subcommand name; SUPPRESS
    # keeps an unset option from clobbering a value parsed earlier
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--preset", help=f"named geometry/field preset: {', '.join(PRESETS)}")
    common.add_argument("--output-dir", dest="output_dir", help="directory for output artifacts")
    common.add_argument("--r", type=float, dest="r", help="minor radius [m]")
    common.add_argument("--R", type=float, dest="R", help="major radius [m]")
    common.add_argument("--mass-ratio", type=float, dest="mass_ratio")
    common.add_argument("--B", type=float, dest="B", help="static magnetic field [T]")
    common.add_argument("--E0", type=float, dest="E0", help="drive amplitude [V/m]")
    common.add_argument("--n-points", type=int, dest="n_points")
    common.add_argument("--stencil-order", type=int, dest="stencil_order", help="2 or 4")
    common.add_argument("--seed", type=int, dest="seed")
    common.add_argument("--source", dest="source", help=f"{NUMERICAL_TAYLOR} or {CLOSED_FORM}")
    common.add_argument("--loc-threshold", type=float, dest="loc_threshold")

    parser = _Parser(
        prog="torusqubit",
        description="Simulator of a bound-state qubit on a graphene nanotorus",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gates = argparse.ArgumentParser(add_help=False)  # control.Gate's, for every gate command
    gates.add_argument("--gate", default="hadamard", help="hadamard | phase:ETA | prep:THETA,ETA")
    gates.add_argument("--mode", choices=("rwa", "labframe"), default="rwa")

    def command(name: str, func, help: str, *parents) -> argparse.ArgumentParser:
        subparser = sub.add_parser(name, help=help, parents=[common, *parents])
        subparser.set_defaults(func=func)
        return subparser

    p = command("potential", cmd_potential, "potential profile CSV")
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--E-static", type=float, default=0.0, dest="E_static")

    p = command("spectrum", cmd_spectrum, "lowest eigenpairs of one sector")
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--levels", type=int, default=DEFAULT_LEVELS)
    p.add_argument("--dump-wavefunctions", action="store_true")

    p = command("sweep-b", cmd_sweep_b, "bound-state energies vs magnetic field")
    p.add_argument("--b-range", default="0:2:41", help="a:b:n in tesla")
    p.add_argument("--m-list", default="0", help="comma-separated orbital numbers")
    p.add_argument("--levels", type=int, default=DEFAULT_LEVELS)

    p = command("window", cmd_window, "two-bound-state initialization window")
    p.add_argument("--scan-max", type=float, default=DEFAULT_SCAN_MAX)

    command("qubit-params", cmd_qubit_params, "two-level reduction report")

    p = command("evolve", cmd_evolve, "Bloch trajectory CSV for one pulse")
    p.add_argument("--rabi", type=float, default=None, help="Rabi rate [rad/s]")
    p.add_argument("--detuning", type=float, default=0.0)
    p.add_argument("--phase", type=float, default=0.0)
    p.add_argument("--duration", type=float, default=None, help="[s]; default pi/(2 Omega)")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--three-level", action="store_true", dest="three_level",
                   help="integrate the anharmonic ladder and emit p2")

    p = command("gate", cmd_gate, "synthesize and verify a gate", gates)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--leakage", action="store_true", help="also run the three-level probe")

    p = command("fidelity", cmd_fidelity, "infidelity vs relative field error", gates)
    p.add_argument("--scan", choices=("dB", "dE"), default="dB")
    p.add_argument("--range", default="0:0.01:11", help="relative error a:b:n")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--check-window", action="store_true")

    p = command("mitigate", cmd_mitigate, "infidelity vs drive amplitude at fixed errors", gates)
    p.add_argument("--delta-b", type=float, default=5e-3, dest="delta_b")
    p.add_argument("--delta-e", type=float, default=0.0, dest="delta_e")
    p.add_argument("--sweep", choices=("E0", "B0"), default="E0")
    p.add_argument("--e0-range", default="100:10000:7", dest="e0_range")
    p.add_argument("--b0-range", default="0.4:0.9:6", dest="b0_range")
    p.add_argument("--spacing", choices=("linear", "log"), default="log")
    p.add_argument("--samples", type=int, default=10000)

    return parser


def _options(parser: argparse.ArgumentParser, args: argparse.Namespace) -> dict:
    """The subcommand's options after defaults, keyed by flag.  The global
    options, which default to SUPPRESS, are left out: the manifest's config
    holds them, resolved from --config, --preset and the flags."""
    [subcommands] = [action.choices for action in parser._actions if action.dest == "command"]
    return {action.option_strings[0]: getattr(args, action.dest)
            for action in subcommands[args.command]._actions
            if action.default is not argparse.SUPPRESS}


def _distinct(caught: list[warnings.WarningMessage]) -> dict[str, warnings.WarningMessage]:
    """First occurrence of each distinct warning message, in the order raised."""
    first: dict[str, warnings.WarningMessage] = {}
    for w in caught:
        first.setdefault(str(w.message), w)
    return first


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; 0 on success, 2 on a config error, 1 on a runtime error.

    Warnings raised anywhere in the run are recorded in every manifest and,
    once the artifacts are written, echoed to stderr in the standard
    "file:line: Category: message" form.  A run that fails prints one line,
    `error: <message>`, and no warning.
    """
    # Before any layer loads numpy: OpenBLAS's idle workers then spin 2^4
    # cycles (the least it takes) before they sleep, not 2^28.  The thread
    # count, and so every output, is unchanged.
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")
    code, error = 0, None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # record every warning, whatever -W says
        try:
            parser = build_parser()
            args = parser.parse_args(argv)
            config = load_config(args)
            output = args.func(args, config)
            out_dir = Path(getattr(args, "output_dir", "."))
            write_artifacts(out_dir, args.command, config, output, list(_distinct(caught)),
                            _options(parser, args))
            if output.summary is not None:  # a result, only once its artifacts exist
                print(output.summary)
        except (ConfigError, OSError) as exc:
            code, error = 2, exc
        except (ValueError, RuntimeError, ArithmeticError) as exc:
            code, error = 1, exc
        except MemoryError as exc:  # numpy's message names the failed allocation
            code, error = 1, f"out of memory: {exc}" if str(exc) else "out of memory"
    if error is not None:  # the one line of a failing run
        print(f"error: {error}", file=sys.stderr)
        return code
    for w in _distinct(caught).values():
        sys.stderr.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno, w.line))
    return code


def process_main() -> int:
    """main() as a process of its own, with no collection during the run or
    at exit; the caller exits with the code it returns."""
    import gc

    gc.disable()
    code = main()
    gc.freeze()  # the exit's collections skip the frozen heap
    return code


if __name__ == "__main__":
    sys.exit(process_main())
