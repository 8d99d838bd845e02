import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from torusqubit.model import TorusGeometry
from torusqubit.reduction import coefficients_numerical, qubit_parameters
from torusqubit.spectral import Discretization

ANGSTROM = 1e-10


@pytest.fixture(scope="session")
def fig3a_geom() -> TorusGeometry:
    return TorusGeometry(r_minor=350 * ANGSTROM, R_major=900 * ANGSTROM)


@pytest.fixture(scope="session")
def fig3b_geom() -> TorusGeometry:
    return TorusGeometry(r_minor=350 * ANGSTROM, R_major=3600 * ANGSTROM)


@pytest.fixture(scope="session")
def disc1024() -> Discretization:
    return Discretization(n_points=1024)


@pytest.fixture(scope="session")
def fig5_qubit(fig3a_geom):
    """Two-level parameters at the error-study operating point (B=0.45 T)."""
    coeffs = coefficients_numerical(fig3a_geom, 0.45)
    return qubit_parameters(coeffs, fig3a_geom, 0.45)


@pytest.fixture(scope="session")
def qubit_factory(fig3a_geom):
    # an errors.QubitFactory of B alone; E0 is accepted and ignored for the
    # acceptance suite, which calls it with the drive amplitude too
    def factory(B: float, E0: float | None = None):
        return qubit_parameters(coefficients_numerical(fig3a_geom, B), fig3a_geom, B)

    return factory
