"""Checks of the simulator's artifacts, computed apart from the program.

Nothing here imports torusqubit.  Physical constants, preset geometries and
the potential used for the qubit frequency are typed here again, so a fault
in the program's constants or formulas cannot also hide in the check.  Each
check raises CheckFailed with a one-line reason.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np
from scipy.linalg import expm

# CODATA 2018 (SI), typed apart from torusqubit.model.
HBAR = 1.054571817e-34
E_CHARGE = 1.602176634e-19
ELECTRON_MASS = 9.1093837015e-31
M_STAR = 0.3 * ELECTRON_MASS

# (minor radius r, major radius R) in metres, as the README's preset table.
GEOMETRY = {
    "fig3a": (350e-10, 900e-10),
    "fig3b": (350e-10, 3600e-10),
    "fig5": (350e-10, 900e-10),
}
FIG5_B = 0.45

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)


class CheckFailed(Exception):
    """An artifact disagrees with what the check computed."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ------------------------------------------------------------ parsing


def _reject_constant(name: str):
    raise CheckFailed(f"non-finite JSON constant {name}")


def load_json(path: Path):
    """Parse JSON, rejecting NaN and +-Infinity (which strict JSON forbids)."""
    return json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=_reject_constant)


def load_csv(path: Path) -> list[dict]:
    """Rows of a CSV artifact; '#' lines skipped, numbers must be finite."""
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
    require(len(lines) >= 2, f"{Path(path).name}: no data rows")
    header = lines[0].split(",")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        require(len(fields) == len(header), f"{Path(path).name}:{number}: {len(fields)} fields")
        row = {}
        for key, text in zip(header, fields):
            if text in ("true", "false"):
                row[key] = text == "true"
                continue
            value = float(text)
            require(math.isfinite(value), f"{Path(path).name}:{number}: non-finite {key}={text}")
            row[key] = value
        rows.append(row)
    return rows


def data_files(op_dir: Path) -> list[Path]:
    return sorted(p for p in Path(op_dir).iterdir() if not p.name.endswith(".manifest.json"))


def check_artifacts(op_dir: Path, manifests: bool = True) -> None:
    """Every file parses; with manifests, each data file has its sidecar."""
    files = sorted(Path(op_dir).iterdir())
    require(bool(data_files(op_dir)), "no data file written")
    for path in files:
        if path.suffix == ".json":
            load_json(path)
        elif path.suffix == ".csv":
            load_csv(path)
        else:
            raise CheckFailed(f"unexpected artifact {path.name}")
    if manifests:
        for path in data_files(op_dir):
            sidecar = path.with_name(path.name + ".manifest.json")
            require(sidecar.is_file(), f"{path.name} has no manifest")


_WARNING = re.compile(r"\w*Warning: (.+)$")


def check_warnings_recorded(stderr: str, op_dir: Path) -> None:
    """Every warning the process printed must also be in its manifests."""
    printed = [m.group(1).strip() for m in map(_WARNING.search, stderr.splitlines()) if m]
    recorded = []
    for path in Path(op_dir).glob("*.manifest.json"):
        recorded.extend(str(w) for w in load_json(path).get("warnings", []))
    text = "\n".join(recorded)
    for message in printed:
        require(message in text, f"warning not in manifest: {message[:60]}")


# ------------------------------------------------------------ field-sweep


def _levels(rows: list[dict]) -> dict[tuple[float, int], dict[int, dict]]:
    out: dict[tuple[float, int], dict[int, dict]] = {}
    for row in rows:
        out.setdefault((row["B"], int(row["m"])), {})[int(row["n"])] = row
    return out


def check_zeeman(rows: list[dict]) -> None:
    """E(m=-1, n) - E(m=+1, n) = e hbar B / m* at every B > 0 and level n."""
    levels = _levels(rows)
    fields = sorted({b for b, m in levels if m == 1 and (b, -1) in levels and b > 0})
    require(bool(fields), "sweep has no B > 0 point with both m=+1 and m=-1")
    for b in fields:
        expected = E_CHARGE * HBAR * b / M_STAR
        tol = 0.005 if b <= 0.1 else 0.02
        for n, plus in levels[(b, 1)].items():
            split = levels[(b, -1)][n]["energy"] - plus["energy"]
            require(
                abs(split - expected) <= tol * expected,
                f"m=+-1 level {n} splitting {split:.6e} J at B={b} T, expected {expected:.6e} J",
            )


def check_zero_field(rows: list[dict]) -> None:
    """At B=0 exactly one m=0 state is bound and the m=+-1 ladders coincide."""
    levels = _levels(rows)
    require((0.0, 0) in levels, "sweep does not start at B=0")
    bound = sum(1 for row in levels[(0.0, 0)].values() if row["bound"])
    require(bound == 1, f"{bound} bound m=0 states at B=0, expected 1")
    for n, plus in levels[(0.0, 1)].items():
        minus = levels[(0.0, -1)][n]["energy"]
        require(
            abs(plus["energy"] - minus) <= 1e-9 * abs(minus),
            f"m=+-1 level {n} not degenerate at B=0",
        )


def check_window(window: dict, rows: list[dict]) -> None:
    """Sweep points well inside the window hold two bound m=0 states; well
    outside (by more than one field step) they do not."""
    b_min, b_max = window["B_min_T"], window["B_max_T"]
    require(0.0 <= b_min < b_max, f"window [{b_min}, {b_max}] is empty")
    counts = {}
    for row in rows:
        if int(row["m"]) == 0:
            counts[row["B"]] = counts.get(row["B"], 0) + int(row["bound"])
    fields = sorted(counts)
    step = fields[1] - fields[0]
    inside = [b for b in fields if b_min + step < b < b_max - step]
    outside = [b for b in fields if b < b_min - step or b > b_max + step]
    require(bool(inside), "no sweep point lies inside the window")
    for b in inside:
        require(counts[b] == 2, f"{counts[b]} bound m=0 states at B={b} T inside the window")
    for b in outside:
        require(counts[b] != 2, f"two bound m=0 states at B={b} T outside the window")


# ------------------------------------------------------------ grid-refine


def check_convergence(energies: dict[int, list[float]]) -> None:
    """Each grid halving shrinks every level's change by 4 +- 0.2 (second order)."""
    grids = sorted(energies)
    require(len(grids) >= 3, "need three grids")
    for a, b, c in zip(grids, grids[1:], grids[2:]):
        require(b == 2 * a and c == 2 * b, f"grids {a}, {b}, {c} are not successive halvings")
        for level, (ea, eb, ec) in enumerate(zip(energies[a], energies[b], energies[c])):
            ratio = (ea - eb) / (eb - ec)
            require(abs(ratio - 4.0) <= 0.2, f"level {level}: ratio {ratio:.5f} on n={a},{b},{c}")


def check_e_sweep(fields: list[float], ground: list[float]) -> None:
    """Ground energy versus a static E: even, concave, largest at E=0.

    E0(F) = min over states of <H0> + F <V1> is a minimum of affine
    functions of F, hence concave; the symmetry theta -> -theta maps F to -F.
    """
    f = np.asarray(fields, dtype=float)
    e = np.asarray(ground, dtype=float)
    require(f.size >= 3 and f.size % 2 == 1, "E grid needs an odd number >= 3 of points")
    step = np.diff(f)
    require(np.allclose(step, step[0], rtol=1e-12, atol=0), "E grid is not uniform")
    require(np.allclose(f, -f[::-1], rtol=0, atol=1e-12 * abs(f).max()), "E grid is not symmetric")
    scale = np.abs(e).max()
    require(np.abs(e - e[::-1]).max() <= 1e-9 * scale, "ground energy is not even in E")
    second = e[:-2] - 2.0 * e[1:-1] + e[2:]
    require(second.max() <= 1e-9 * scale, f"ground energy not concave (max 2nd diff {second.max():.3e})")
    centre = f.size // 2
    others = np.delete(e, centre)
    require(e[centre] > others.max(), "ground energy is not largest at E=0")


# ------------------------------------------------------------ labframe


def potential_internal(theta, rho: float, b: float, m: int = 0):
    """Curvature plus magnetic trapping potential in units of hbar^2/(2 m* r^2)."""
    c = np.cos(theta)
    x = rho + c
    bare = (-0.25 * rho * rho + m * m + 0.25 * np.sin(theta) ** 2 + 0.5 * (rho * c + 1.0)) / (x * x)
    return bare + b * b * x * x - 2.0 * m * b


def qubit_omega(preset: str, B: float) -> float:
    """Harmonic frequency of the well at theta = pi, from its curvature."""
    r, R = GEOMETRY[preset]
    b = E_CHARGE * B * r * r / (2.0 * HBAR)
    h = 1e-3
    v = [potential_internal(math.pi + k * h, R / r, b) for k in (-1, 0, 1)]
    curvature = (v[0] - 2.0 * v[1] + v[2]) / h**2 * HBAR**2 / (2.0 * M_STAR * r * r)
    return math.sqrt(curvature / M_STAR) / r


def unitary_from(payload: dict) -> np.ndarray:
    return np.array([[complex(re_, im) for re_, im in row] for row in payload["unitary"]])


def check_unitary(u: np.ndarray, tol: float = 1e-6) -> None:
    require(u.shape == (2, 2), f"unitary has shape {u.shape}")
    error = np.abs(u.conj().T @ u - np.eye(2)).max()
    require(error <= tol, f"reported matrix is not unitary (|U^dag U - I| = {error:.2e})")


def rwa_propagator(pulses: list[dict], frame_phase: float = 0.0) -> np.ndarray:
    """Rotating-frame propagator built by matrix exponentials.

    Per segment H/hbar = Delta |1><1| + (Omega/2)(e^{i phi}|0><1| + h.c.),
    with the ground state |0> first; a trailing frame phase diag(1, e^{i eta}).
    """
    u = np.eye(2, dtype=complex)
    for p in pulses:
        omega, delta, phi = p["rabi_Omega"], p["detuning_Delta"], p["phase_phi"]
        h = np.array(
            [[0.0, 0.5 * omega * np.exp(1j * phi)], [0.5 * omega * np.exp(-1j * phi), delta]]
        )
        u = expm(-1j * h * p["duration"]) @ u
    return np.diag([1.0, np.exp(1j * frame_phase)]) @ u


def phase_free_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return abs(np.trace(a.conj().T @ b)) / 2.0


def check_gate(payload: dict) -> None:
    """Unitarity, agreement with an RWA propagator within (2 Omega/omega)^2,
    and the reported fidelity recomputed from the reported matrix.  All gate
    operations run at the fig5 operating point."""
    u = unitary_from(payload)
    check_unitary(u)
    seq = payload["sequence"]
    rwa = rwa_propagator(seq["pulses"], seq["frame_phase"])
    rabi = max((p["rabi_Omega"] for p in seq["pulses"]), default=0.0)
    bound = (2.0 * rabi / qubit_omega("fig5", FIG5_B)) ** 2
    infidelity = 1.0 - phase_free_fidelity(rwa, u)
    require(infidelity <= bound, f"1 - F(RWA, U) = {infidelity:.3e} exceeds (2 Omega/omega)^2 = {bound:.3e}")
    gate = payload["gate"]
    if gate == "hadamard":
        fidelity = phase_free_fidelity(HADAMARD, u)
    elif gate.startswith("prep:"):
        theta, eta = (float(v) for v in gate.split(":", 1)[1].split(","))
        target = np.array([math.sin(theta / 2), np.exp(1j * eta) * math.cos(theta / 2)])
        fidelity = abs(np.vdot(target, u[:, 0])) ** 2
        require(fidelity >= 1.0 - 1e-9, f"prepared state fidelity {fidelity:.12f}")
    else:
        raise CheckFailed(f"no check for gate {gate!r}")
    reported = payload["fidelity_to_ideal"]
    require(abs(fidelity - reported) <= 1e-9, f"fidelity_to_ideal {reported!r}, recomputed {fidelity!r}")
    if "max_leakage" in payload:
        require(0.0 <= payload["max_leakage"] < 1e-3, f"max_leakage {payload['max_leakage']!r}")


def check_three_level(rows: list[dict]) -> None:
    for row in rows:
        total = row["p0"] + row["p1"] + row["p2"]
        require(abs(total - 1.0) <= 1e-6, f"populations sum to {total!r} at t={row['t']!r}")
        require(row["p2"] < 1e-3, f"p2 = {row['p2']!r} at t={row['t']!r}")


# ------------------------------------------------------------ error-study


def check_rabi_rotation(rows: list[dict], pulse: dict) -> None:
    """A resonant pulse from |0> gives z(t) = cos(Omega t)."""
    require(pulse["detuning_Delta"] == 0.0, "trajectory check needs a resonant pulse")
    for row in rows:
        z = math.cos(pulse["rabi_Omega"] * row["t"])
        require(abs(row["z"] - z) <= 1e-9, f"z = {row['z']!r} at t={row['t']!r}, expected {z!r}")


def check_infidelity_scan(rows: list[dict]) -> None:
    """Zero at delta = 0 and strictly increasing in delta."""
    require(rows[0]["delta"] == 0.0, "scan does not start at delta=0")
    require(rows[0]["mean_infidelity"] <= 1e-15, f"infidelity {rows[0]['mean_infidelity']!r} at delta=0")
    for prev, row in zip(rows, rows[1:]):
        require(
            row["delta"] > prev["delta"] and row["mean_infidelity"] > prev["mean_infidelity"],
            f"infidelity not increasing between delta={prev['delta']} and {row['delta']}",
        )


def hadamard_de_infidelity(delta: float) -> float:
    """Average infidelity (2/3) sin^2 chi of the tilted Hadamard at Rabi error delta.

    The pulse has Delta = -Omega and Omega t = pi/sqrt(2); an electric error
    rescales Omega only.  chi is half the rotation angle of U_ideal^dag U_err.
    """
    t = math.pi / math.sqrt(2.0)
    ideal = rwa_propagator([{"rabi_Omega": 1.0, "detuning_Delta": -1.0, "phase_phi": 0.0, "duration": t}])
    error = rwa_propagator([{"rabi_Omega": 1.0 + delta, "detuning_Delta": -1.0, "phase_phi": 0.0, "duration": t}])
    cos_chi = abs(np.trace(ideal.conj().T @ error)) / 2.0
    return (2.0 / 3.0) * (1.0 - min(cos_chi, 1.0) ** 2)


def check_de_scan(rows: list[dict], n_samples: int) -> None:
    """Monte-Carlo means within 5 standard errors of (2/3) sin^2 chi.

    Per sample the infidelity is sin^2 chi (1 - u^2) with u uniform on
    [-1, 1], whose standard deviation is sqrt(4/45) sin^2 chi.
    """
    for row in rows:
        expected = hadamard_de_infidelity(row["delta"])
        sin_sq = 1.5 * expected
        stderr = math.sqrt(4.0 / 45.0) * sin_sq / math.sqrt(n_samples)
        require(
            abs(row["mean_infidelity"] - expected) <= 5.0 * stderr + 1e-15,
            f"delta={row['delta']}: mean {row['mean_infidelity']:.6e}, expected {expected:.6e} +- {stderr:.1e}",
        )


def check_mitigation(rows: list[dict]) -> None:
    for prev, row in zip(rows, rows[1:]):
        require(
            row["E0"] > prev["E0"] and row["mean_infidelity"] <= prev["mean_infidelity"],
            f"mean infidelity rises to {row['mean_infidelity']:.3e} at E0={row['E0']}",
        )


def check_epsilon_routes(payload: dict, preset: str) -> None:
    """closed-form minus numerical epsilon is hbar^2 / (2 m* r (R - r))."""
    r, R = GEOMETRY[preset]
    expected = HBAR**2 / (2.0 * M_STAR * r * (R - r))
    sources = payload["sources"]
    diff = sources["closed_form"]["epsilon"] - sources["numerical_taylor"]["epsilon"]
    require(abs(diff - expected) <= 1e-10 * expected, f"epsilon routes differ by {diff!r}, expected {expected!r}")
