"""The range rules of model, and the layers' scalar checks that call them."""

import dataclasses
import math
import re

import pytest

from torusqubit.control import PulseSequence
from torusqubit.dynamics import PulseSpec
from torusqubit.errors import ErrorModel
from torusqubit.model import (TWO_PI, FieldConfig, TorusGeometry, UnitSystem, check_count,
                              check_finite, check_periods, check_positive, magnetic_parameter)
from torusqubit.potential import PotentialParams
from torusqubit.reduction import coefficients_closed_form, rabi_frequency

ANGSTROM = 1e-10
NON_FINITE = [math.nan, math.inf, -math.inf]
GEOM = TorusGeometry(350 * ANGSTROM, 900 * ANGSTROM)
VALID = [GEOM, FieldConfig(B=0.45, E0=100.0), PotentialParams(GEOM, B=0.45),
         PulseSpec(1e9, 0.0, 0.0, 1e-9), ErrorModel(0.0, 0.0, 0.45, 100.0),
         UnitSystem(1.0, 1.0, 1.0), PulseSequence(())]
FLOAT_FIELDS = [(valid, field.name) for valid in VALID
                for field in dataclasses.fields(valid) if field.type == "float"]


class TestRules:
    @pytest.mark.parametrize("low, high, bound", [
        (-math.inf, math.inf, ""),
        (0.0, math.inf, " and >= 0"),
        (-0.1, 0.1, " and in [-0.1, 0.1]"),
    ])
    def test_finite_message(self, low, high, bound):
        assert check_finite(0.0, "x", low, high) == 0.0
        with pytest.raises(ValueError, match=f"^{re.escape(f'x must be finite{bound}, got nan')}$"):
            check_finite(math.nan, "x", low, high)

    @pytest.mark.parametrize("value", [0.0, -1.0, *NON_FINITE])
    def test_positive(self, value):
        assert check_positive(1e-300, "x") == 1e-300
        with pytest.raises(ValueError, match=rf"^x must be finite and positive, got {value!r}$"):
            check_positive(value, "x")

    def test_count(self):
        assert check_count(2, "n", 2) == 2 and check_count(5, "n", 1, 5) == 5
        with pytest.raises(ValueError, match="^n must be >= 2, got 1$"):
            check_count(1, "n", 2)
        with pytest.raises(ValueError, match=r"^n must be in \[1, 5\], got 6$"):
            check_count(6, "n", 1, 5)

    def test_periods(self):
        # the message gives the count of periods compared with the limit, not the time
        assert check_periods(1.0, "t", TWO_PI) == 1.0 and check_periods(1e300, "t", 0.0) == math.inf
        limit = r"^t must span fewer than 2\^63 drive periods, got "
        with pytest.raises(ValueError, match=limit + r"1e\+20$"):
            check_periods(1e20, "t", TWO_PI)
        with pytest.raises(ValueError, match=limit + "inf$"):
            check_periods(1e300, "t", 1e300)


class TestNonFiniteRejected:
    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("valid, name", FLOAT_FIELDS,
                             ids=[f"{type(valid).__name__}.{name}" for valid, name in FLOAT_FIELDS])
    def test_every_float_field(self, valid, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            dataclasses.replace(valid, **{name: value})

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("call, name", [
        (lambda value: rabi_frequency(1e-28, value), "E0"),
        (lambda value: coefficients_closed_form(GEOM, value), "B"),
        (lambda value: magnetic_parameter(GEOM, value), "B"),
    ], ids=["rabi_frequency", "coefficients_closed_form", "magnetic_parameter"])
    def test_field_arguments(self, call, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            call(value)
