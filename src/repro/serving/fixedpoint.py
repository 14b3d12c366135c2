"""Fixed-point requantization arithmetic for the integer serving engine.

Between two quantized layers the serving runtime must map an exact
int64 accumulator ``acc`` onto the next layer's activation grid without
touching float64 (the deployment contract of
:mod:`repro.serving.compile`).  The classic gemmlowp recipe multiplies
by a single int32 fixed-point multiplier; its ~2^-31 coefficient error
shows up as ~2^-22-level error after the fraction shift — enough to
flip a code on inputs that land near a rounding boundary, which the
bit-for-bit equivalence tests would (rightly) catch.

This module therefore splits the real coefficient ``c`` into a *pair*
of int32 multipliers carrying the top 31 and bottom 22 bits of its
float64 mantissa:

    c = m * 2^e,          m in [0.5, 1)          (``math.frexp``)
    m53 = round(m * 2^53) = m_hi * 2^22 + m_lo   (m_hi < 2^31, m_lo < 2^22)
    a*c  ~= (a*m_hi + rshift(a*m_lo, 22)) >> (31 - e)

so the coefficient is exact to the last bit of its float64
representation and the total error per multiply is ~1 unit in the last
fixed-point place (from the two rounding shifts), not 2^9 of them.
All intermediate products stay in int64: ``|a| * m_hi < 2^62`` is
guaranteed for operands up to :attr:`FixedPointMultiplier
.max_safe_operand`, which the compiler checks against each layer's
worst-case accumulator before accepting a plan.

The final code conversion uses :func:`round_half_even_shift`, an
integer reimplementation of ``np.round``'s banker's rounding, so the
engine resolves exact ties the same way the fake-quant float reference
does.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

__all__ = [
    "FixedPointMultiplier",
    "rounding_shift_right",
    "round_half_even_shift",
    "round_half_even_div",
]

#: Bits of the float64 mantissa carried by the low multiplier.
_LO_BITS = 22
#: Shift that realigns the high multiplier (53 mantissa bits - _LO_BITS).
_HI_SHIFT = 53 - _LO_BITS
#: Largest final shift: its ``2^(shift-1)`` rounding bias plus a product
#: of magnitude up to 2^62 must still fit int64.
_MAX_SHIFT = 62


def rounding_shift_right(
    v: np.ndarray, shift: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """``round(v / 2^shift)`` with ties away from the floor.

    Used for the *intermediate* shifts of a fixed-point multiply, where
    tie direction only moves the (already sub-ulp) coefficient error.
    A non-positive ``shift`` is an exact left shift.  numpy's ``>>``
    floors negative operands, which is exactly what the ``+half``
    rounding bias requires.  ``out`` (an int64 array of ``v``'s shape,
    ``v`` itself allowed) receives the result when given.
    """
    if shift <= 0:
        return np.left_shift(v, -shift, out=out)
    shifted = np.add(v, 1 << (shift - 1), out=out)
    shifted >>= shift
    return shifted


def round_half_even_shift(
    v: np.ndarray, shift: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """``round(v / 2^shift)`` with banker's rounding, matching ``np.round``.

    The fake-quant reference resolves a value landing exactly halfway
    between two codes with round-half-even; the integer engine must
    agree, so the final fraction-bit shift cannot use the cheap
    ``(v + half) >> shift`` (round-half-up) form.  With ``q = v >>
    shift`` (the floor), ``(v + half - 1 + (q & 1)) >> shift`` rounds
    up exactly when the remainder is above half, or is half and ``q``
    is odd.  ``out`` (an int64 array of ``v``'s shape that does not
    overlap ``v``) receives the result when given.
    """
    if shift <= 0:
        return np.left_shift(v, -shift, out=out)
    rounded = np.right_shift(v, shift, out=out)
    rounded &= 1
    rounded += (1 << (shift - 1)) - 1
    rounded += v
    rounded >>= shift
    return rounded


def round_half_even_div(num: np.ndarray, den) -> np.ndarray:
    """``round(num / den)`` with banker's rounding, exact in int64.

    The general-denominator form of :func:`round_half_even_shift`,
    needed when average pooling folds its window count into the
    requantization denominator (``den = count << fraction_bits``),
    which is no longer a power of two.  ``den`` must be positive (a
    scalar or an array broadcastable against ``num``).
    """
    q = num // den          # floor division: remainder is always >= 0
    r = num - q * den
    twice = 2 * r
    bump = (twice > den) | ((twice == den) & ((q & 1) == 1))
    return q + bump


class FixedPointMultiplier:
    """Multiply int64 arrays by a real constant in pure integer math.

    ``FixedPointMultiplier(c)(a)`` approximates ``a * c`` (rounded to
    the nearest integer) using only int64 multiplies and shifts; the
    coefficient is carried to full float64 precision via the split
    mantissa described in the module docstring.  A nonzero ``|c|``
    below 2^-32 needs a final shift past 62 and raises ``ValueError``.
    """

    __slots__ = ("value", "m_hi", "m_lo", "shift")

    def __init__(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"coefficient must be finite, got {value!r}")
        self.value = value
        if value == 0.0:
            self.m_hi = 0
            self.m_lo = 0
            self.shift = 0
            return
        m, e = math.frexp(value)            # value = m * 2^e, |m| in [.5, 1)
        m53 = round(m * (1 << 53))
        if abs(m53) == 1 << 53:             # mantissa rounded up to 1.0
            m53 //= 2
            e += 1
        shift = _HI_SHIFT - e
        if shift > _MAX_SHIFT:
            raise ValueError(
                f"coefficient {value!r} is below 2^-32 in magnitude; its "
                f"final shift {shift} would overflow int64"
            )
        sign = 1 if m53 >= 0 else -1
        mag = abs(m53)
        self.m_hi = sign * (mag >> _LO_BITS)
        self.m_lo = sign * (mag & ((1 << _LO_BITS) - 1))
        self.shift = shift

    @property
    def max_safe_operand(self) -> int:
        """Largest ``|a|`` for which every intermediate stays in int64."""
        divisor = max(abs(self.m_hi), 1)
        return ((1 << 62) - 1) // divisor

    def __call__(
        self,
        a: np.ndarray,
        out: Optional[np.ndarray] = None,
        scratch: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``a * value`` rounded to an int64 array.

        ``out`` (int64, ``a``'s shape, ``a`` itself allowed) receives
        the result and is returned; ``scratch`` (int64, ``a``'s shape,
        overlapping neither) holds the low-half product and is left
        undefined.  Each is allocated when ``None``.
        """
        if out is None:
            out = np.empty(np.shape(a), dtype=np.int64)
        if self.m_hi == 0 and self.m_lo == 0:
            out[...] = 0
            return out
        scratch = np.multiply(a, self.m_lo, out=scratch)
        rounding_shift_right(scratch, _LO_BITS, out=scratch)
        np.multiply(a, self.m_hi, out=out)
        out += scratch
        return rounding_shift_right(out, self.shift, out=out)

    def __repr__(self) -> str:
        return (
            f"FixedPointMultiplier({self.value!r}, m_hi={self.m_hi}, "
            f"m_lo={self.m_lo}, shift={self.shift})"
        )
