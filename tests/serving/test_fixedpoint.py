"""The fixed-point requantization arithmetic against exact integers.

Every reference here is exact: Python integers and ``Fraction``s, whose
``round`` is half-to-even.  The ``out=`` forms the stages use, written
over their own operand, must give the allocating forms' bytes.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.fixedpoint import (
    FixedPointMultiplier,
    round_half_even_div,
    round_half_even_shift,
    rounding_shift_right,
)


def _signed(magnitudes):
    return st.builds(
        lambda magnitude, negative: -magnitude if negative else magnitude,
        magnitudes, st.booleans(),
    )


# Magnitudes in [2^-32, 2^30]: the compiler's coefficients are ratios
# of grid scales times 2^fraction_bits, well inside.  Above 2^31 the
# final shift turns left and the bound below no longer holds; below
# 2^-32 it passes 62 and the multiplier refuses the coefficient.
coefficients = _signed(st.floats(min_value=2.0 ** -32, max_value=2.0 ** 30))


def _operands(mul, draw_ints, n=16):
    bound = mul.max_safe_operand
    values = draw_ints(st.lists(
        st.integers(min_value=-bound, max_value=bound), min_size=1, max_size=n
    ))
    return np.array(values + [bound, -bound, 0, 1, -1], dtype=np.int64)


def _assert_within_one_unit(mul, a, got):
    exact = Fraction(mul.value)
    for ai, gi in zip(a.tolist(), got.tolist()):
        assert abs(gi - exact * ai) <= 1, (mul, ai, gi)


class TestFixedPointMultiplier:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(c=coefficients, data=st.data())
    def test_within_one_unit_of_the_exact_product(self, c, data):
        mul = FixedPointMultiplier(c)
        a = _operands(mul, data.draw)
        _assert_within_one_unit(mul, a, mul(a))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(k=st.integers(min_value=1, max_value=2 ** 31 - 1),
           scale=st.integers(min_value=0, max_value=30),
           negative=st.booleans(), data=st.data())
    def test_short_mantissas_have_no_low_half(self, k, scale, negative, data):
        """A coefficient with at most 31 significant bits leaves the low
        multiplier zero; the product must still be within one unit."""
        c = math.ldexp(-k if negative else k, -scale)
        mul = FixedPointMultiplier(c)
        assert mul.m_lo == 0
        a = _operands(mul, data.draw)
        _assert_within_one_unit(mul, a, mul(a))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(c=_signed(st.floats(min_value=2.0 ** -62, max_value=2.0 ** -32,
                               exclude_max=True)))
    def test_coefficients_below_two_to_the_minus_32_raise(self, c):
        with pytest.raises(ValueError, match=r"below 2\^-32"):
            FixedPointMultiplier(c)

    def test_zero_coefficient(self):
        a = np.array([5, -7, 2 ** 40], dtype=np.int64)
        mul = FixedPointMultiplier(0.0)
        assert not mul(a).any()
        assert not mul(a.copy(), out=a, scratch=np.empty_like(a)).any()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(c=coefficients, data=st.data())
    def test_in_place_call_gives_the_allocating_bytes(self, c, data):
        """The stages write the product over its own operand."""
        mul = FixedPointMultiplier(c)
        a = _operands(mul, data.draw).reshape(-1, 1)
        want = mul(a)
        got = a.copy()
        scratch = np.full_like(a, 123)
        assert mul(got, out=got, scratch=scratch) is got
        assert got.tobytes() == want.tobytes()


def _half_even_reference(v, shift):
    return [round(Fraction(x, 2 ** shift)) for x in v.tolist()]


ints = st.integers(min_value=-(2 ** 61), max_value=2 ** 61)


class TestRounding:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(values=st.lists(ints, min_size=1, max_size=32),
           shift=st.integers(min_value=1, max_value=40))
    def test_round_half_even_shift_is_exact(self, values, shift):
        v = np.array(values, dtype=np.int64)
        want = _half_even_reference(v, shift)
        assert round_half_even_shift(v, shift).tolist() == want
        out = np.full_like(v, -1)
        assert round_half_even_shift(v, shift, out=out) is out
        assert out.tolist() == want

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(halves=st.lists(st.integers(-(2 ** 20), 2 ** 20),
                           min_size=1, max_size=32),
           shift=st.integers(min_value=1, max_value=30))
    def test_ties_go_to_even_on_both_signs(self, halves, shift):
        # (2k + 1) * 2^(shift-1) sits exactly halfway between k and k+1.
        v = np.array([(2 * k + 1) << (shift - 1) for k in halves],
                     dtype=np.int64)
        got = round_half_even_shift(v, shift)
        assert got.tolist() == _half_even_reference(v, shift)
        assert not (got & 1).any()

    def test_non_positive_shift_is_an_exact_left_shift(self):
        v = np.array([3, -5, 0], dtype=np.int64)
        assert round_half_even_shift(v, 0).tolist() == [3, -5, 0]
        assert round_half_even_shift(v, -2).tolist() == [12, -20, 0]
        out = np.empty_like(v)
        round_half_even_shift(v, -2, out=out)
        assert out.tolist() == [12, -20, 0]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(values=st.lists(ints, min_size=1, max_size=32),
           den=st.integers(min_value=1, max_value=2 ** 30))
    def test_round_half_even_div_is_exact(self, values, den):
        v = np.array(values, dtype=np.int64)
        want = [round(Fraction(x, den)) for x in v.tolist()]
        assert round_half_even_div(v, den).tolist() == want

    def test_round_half_even_div_ties(self):
        # 3 windows of 1.5, -1.5, 2.5, -2.5: ties in both directions.
        v = np.array([9, -9, 15, -15], dtype=np.int64)
        assert round_half_even_div(v, 6).tolist() == [2, -2, 2, -2]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(values=st.lists(ints, min_size=1, max_size=32),
           shift=st.integers(min_value=-3, max_value=40))
    def test_rounding_shift_right_out_gives_the_allocating_bytes(
        self, values, shift
    ):
        v = np.array(values, dtype=np.int64) >> 4  # room for a left shift
        want = rounding_shift_right(v, shift)
        out = np.empty_like(v)
        got = rounding_shift_right(v, shift, out=out)
        assert got.tobytes() == want.tobytes()
        in_place = v.copy()
        rounding_shift_right(in_place, shift, out=in_place)
        assert in_place.tobytes() == want.tobytes()
        if shift > 0:
            half = 1 << (shift - 1)
            assert want.tolist() == [(x + half) // 2 ** shift
                                     for x in v.tolist()]


@pytest.mark.parametrize("shape", [(7,), (5, 3), (2, 3, 4, 5)])
def test_out_forms_on_multidimensional_arrays(shape):
    rng = np.random.default_rng(len(shape))
    v = rng.integers(-(2 ** 40), 2 ** 40, size=shape)
    want = round_half_even_shift(v, 17)
    out = np.empty(shape, dtype=np.int64)
    assert round_half_even_shift(v, 17, out=out).tobytes() == want.tobytes()
    mul = FixedPointMultiplier(0.3712)
    a = rng.integers(-(2 ** 30), 2 ** 30, size=shape)
    got = a.copy()
    mul(got, out=got, scratch=np.empty_like(got))
    assert got.tobytes() == mul(a).tobytes()
