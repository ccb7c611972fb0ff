"""Tests for the exact-arithmetic conversion layer."""

import itertools
from fractions import Fraction
from math import factorial, prod

import pytest

from repro._numeric import as_float, multinomial, to_fraction, to_positive_fraction


def compositions(n, parts):
    """Every tuple of *parts* non-negative ints summing to *n*."""
    for cuts in itertools.combinations_with_replacement(range(n + 1), parts - 1):
        bounds = (0, *cuts, n)
        yield tuple(hi - lo for lo, hi in zip(bounds, bounds[1:]))


class TestToFraction:
    def test_int_converts_exactly(self):
        assert to_fraction(7) == Fraction(7)

    def test_fraction_passes_through(self):
        value = Fraction(3, 7)
        assert to_fraction(value) is value

    def test_float_converts_exactly(self):
        # 0.1 is not 1/10 in binary; the conversion must preserve the
        # float's true value, not the decimal literal.
        assert to_fraction(0.5) == Fraction(1, 2)
        assert to_fraction(0.1) == Fraction(0.1)
        assert to_fraction(0.1) != Fraction(1, 10)

    def test_bool_rejected(self):
        with pytest.raises(TypeError, match="bool"):
            to_fraction(True)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            to_fraction(float("nan"))

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf")])
    def test_infinite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            to_fraction(bad)

    def test_string_rejected_with_name(self):
        with pytest.raises(TypeError, match="power"):
            to_fraction("10", name="power")


class TestToPositiveFraction:
    def test_positive_ok(self):
        assert to_positive_fraction(3) == Fraction(3)

    @pytest.mark.parametrize("bad", [0, -1, -0.5, Fraction(0)])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(ValueError, match="strictly positive"):
            to_positive_fraction(bad)

    def test_error_names_parameter(self):
        with pytest.raises(ValueError, match="reward"):
            to_positive_fraction(-1, name="reward")


def test_as_float():
    assert as_float(Fraction(1, 2)) == 0.5
    assert as_float(3) == 3.0


class TestMultinomial:
    @pytest.mark.parametrize("n", range(9))
    @pytest.mark.parametrize("parts", [1, 2, 3, 4])
    def test_equals_the_factorial_quotient(self, n, parts):
        for counts in compositions(n, parts):
            expected = factorial(n) // prod(factorial(c) for c in counts)
            assert multinomial(counts) == expected

    @pytest.mark.parametrize("n", range(9))
    @pytest.mark.parametrize("parts", [1, 2, 3, 4])
    def test_sums_to_the_power_over_all_compositions(self, n, parts):
        # Multinomial theorem at x_1 = … = x_m = 1.
        assert sum(multinomial(c) for c in compositions(n, parts)) == parts**n

    def test_order_and_zero_parts_do_not_matter(self):
        assert multinomial([3, 0, 2, 5]) == multinomial([5, 2, 3]) == 2520
        assert multinomial([]) == 1
        assert multinomial([0, 0]) == 1

    def test_large_counts_stay_exact(self):
        counts = (4_000, 3_500, 2_500)
        value = multinomial(counts)
        # Pascal's rule for multinomials: lowering each part by one in
        # turn partitions the orbits by the last element's coin.
        assert value == sum(
            multinomial(counts[:j] + (counts[j] - 1,) + counts[j + 1 :])
            for j in range(len(counts))
        )

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            multinomial([3, -1])
