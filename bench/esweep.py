"""Lowest levels of the m=0 sector versus a static electric field.

No CLI subcommand reaches spectral.sweep_field(field="E"), so the benchmark
runs it through the library in a cold process of its own:

    PYTHONPATH=src python3 bench/esweep.py --r 3.5e-8 --R 9e-8 \
        --n-points 2048 --e-max 3000 --count 9

writes esweep.json (fields in V/m, energies in internal units) to the
working directory.  The field grid is uniform and symmetric about E=0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from torusqubit import spectral
from torusqubit.model import TorusGeometry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--r", type=float, required=True, help="minor radius [m]")
    parser.add_argument("--R", type=float, required=True, help="major radius [m]")
    parser.add_argument("--n-points", type=int, required=True)
    parser.add_argument("--e-max", type=float, required=True, help="largest |E| [V/m]")
    parser.add_argument("--count", type=int, required=True, help="odd number of field points")
    args = parser.parse_args(argv)

    fields = np.linspace(-args.e_max, args.e_max, args.count)
    spectra = spectral.sweep_field(
        TorusGeometry(args.r, args.R), [0], fields, spectral.Discretization(args.n_points), field="E"
    )
    payload = {
        "E_V_per_m": fields.tolist(),
        "energy_internal": [[state.energy for state in spec.states] for spec in spectra],
        "n_points": args.n_points,
    }
    Path("esweep.json").write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
