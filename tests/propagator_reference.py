"""Regenerate tests/propagator_reference.json, the 28-digit propagators that
tests/test_dynamics.py checks the lab-frame integrator against.

    PYTHONPATH=src python tests/propagator_reference.py

Each case is a drive Hamiltonian H(t) = h0 + cos(omega_rf t + phi) coupling,
stored as float matrices [J], with its sample times [s]:
- the fig5 Hadamard segment (two levels, as labframe_unitary builds it) at
  E0 = 100, 10 and 1 V/m;
- the fig5 qubit driven on resonance at Omega = omega / 100 for 50.5 cycles;
- the three-level ladder of leakage_probe under the E0 = 100 V/m Hadamard
  drive, at a third of the segment and at its end.
The stored floats are taken as exact.  mpmath's Taylor ODE solver
integrates i hbar dU/dt = H(t) U over one period T = 2 pi / omega_rf at 32
working digits.  It gives the single-period propagator, at the float period
2 pi / omega_rf that the integrator uses, and each U(t) = U(r) U_T^N, with
t = N T + r, formed in mpmath by repeated squaring.  Entries are written to
28 significant digits.  Needs mpmath; takes under a minute.
"""

import json
import math
from pathlib import Path

import mpmath as mp
import numpy as np

from torusqubit.control import hadamard_sequence
from torusqubit.dynamics import drive_field
from torusqubit.model import HBAR, TorusGeometry
from torusqubit.reduction import coefficients_numerical, qubit_parameters, rabi_frequency

OUTPUT = Path(__file__).with_suffix(".json")
DIGITS = 28


def _cases() -> dict[str, dict]:
    geom = TorusGeometry(r_minor=350e-10, R_major=900e-10)
    qubit = qubit_parameters(coefficients_numerical(geom, 0.45), geom, 0.45)
    h0 = HBAR * qubit.omega * np.diag([0.0, 1.0])
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    cases = {}
    for e0 in (100.0, 10.0, 1.0):
        pulse = hadamard_sequence(qubit, e0).pulses[0]
        field = drive_field(pulse, qubit)
        coupling = HBAR * rabi_frequency(qubit.mu_dipole, field.E0) * sigma_x
        cases[f"hadamard-E0-{e0:g}"] = dict(h0=h0, coupling=coupling, omega_rf=field.omega_rf,
                                            phi=field.phi, times=[pulse.duration])
    e0 = 1e-2 * qubit.omega * HBAR / qubit.mu_dipole
    cases["resonant-50.5-cycles"] = dict(
        h0=h0, coupling=HBAR * rabi_frequency(qubit.mu_dipole, e0) * sigma_x,
        omega_rf=qubit.omega, phi=0.0, times=[50.5 * 2.0 * math.pi / qubit.omega])
    # the ladder of dynamics.ladder_trajectory under the E0 = 100 V/m drive
    pulse = hadamard_sequence(qubit, 100.0).pulses[0]
    field = drive_field(pulse, qubit)
    s = qubit.zero_point_spread
    x = np.diag([1.0, math.sqrt(2.0)], 1)
    x3 = np.diag([3.0, 6.0 * math.sqrt(2.0)], 1)
    e_r = qubit.mu_dipole / (s - s**3 / 6.0)
    h0 = np.diag([0.0, HBAR * qubit.omega, 2.0 * HBAR * qubit.omega + 12.0 * qubit.alpha_anh])
    coupling = e_r * field.E0 * (s * (x + x.T) - (s**3 / 6.0) * (x3 + x3.T))
    cases["ladder-E0-100"] = dict(h0=h0, coupling=coupling, omega_rf=field.omega_rf,
                                  phi=field.phi, times=[pulse.duration / 3.0, pulse.duration])
    return cases


def _matmul(a, b):
    n = len(a)
    return [[mp.fsum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _power(base, n):
    dim = len(base)
    out = [[mp.mpf(int(i == j)) for j in range(dim)] for i in range(dim)]
    while n:
        if n & 1:
            out = _matmul(out, base)
        base = _matmul(base, base)
        n >>= 1
    return out


def reference(h0, coupling, omega_rf: float, phi: float, times) -> tuple[list, list]:
    """U at the float period 2 pi / omega_rf, and U(t) for every t.

    The solve runs in the time variable tau = omega_rf t (period 2 pi).
    """
    dim = len(h0)
    scale = mp.mpf(HBAR) * mp.mpf(omega_rf)
    a0 = [[mp.mpf(float(v)) / scale for v in row] for row in h0]
    a1 = [[mp.mpf(float(v)) / scale for v in row] for row in coupling]
    phase = mp.mpf(phi)

    def rhs(tau, y):
        c = mp.cos(tau + phase)
        u = [y[i * dim:(i + 1) * dim] for i in range(dim)]
        return [-1j * mp.fsum((a0[i][k] + c * a1[i][k]) * u[k][j] for k in range(dim))
                for i in range(dim) for j in range(dim)]

    flow = mp.odefun(rhs, 0, [mp.mpc(int(i == j)) for i in range(dim) for j in range(dim)])

    def at(tau):
        y = flow(tau)
        return [y[i * dim:(i + 1) * dim] for i in range(dim)]

    one_period = at(2 * mp.pi)
    out = []
    for t in times:
        tau = mp.mpf(omega_rf) * mp.mpf(t)
        cycles = int(mp.floor(tau / (2 * mp.pi)))
        if cycles != int(t // (2.0 * math.pi / omega_rf)):
            raise SystemExit(f"t={t!r} lies too close to a period boundary")
        out.append(_matmul(at(tau - 2 * mp.pi * cycles), _power(one_period, cycles)))
    return at(mp.mpf(omega_rf) * mp.mpf(2.0 * math.pi / omega_rf)), out


def _entries(u) -> list:
    return [[[mp.nstr(v.real, DIGITS), mp.nstr(v.imag, DIGITS)] for v in row] for row in u]


def main() -> None:
    mp.mp.dps = 32
    payload = {}
    for name, case in _cases().items():
        period, unitaries = reference(case["h0"], case["coupling"], case["omega_rf"], case["phi"],
                                      case["times"])
        payload[name] = {
            "h0": case["h0"].tolist(),
            "coupling": case["coupling"].tolist(),
            "omega_rf": case["omega_rf"],
            "phi": case["phi"],
            "times": case["times"],
            "period": _entries(period),
            "unitaries": [_entries(u) for u in unitaries],
        }
        print(name, "done", flush=True)
    OUTPUT.write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    main()
