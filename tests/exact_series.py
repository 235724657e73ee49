"""Sampling series in exact rational arithmetic, for polynomial sources.

Every float is a rational, so at a float point (x, y) and an integer rate w
the series G_w f(x, y) = sum_{k,j} chi(wx - k, wy - j) f(k/w, j/w) of a
B-spline kernel and a polynomial f is a finite sum of rationals.  This
module computes it with :class:`fractions.Fraction`, and nothing else, so
that tests can measure how far the floating-point core lands from the
value it intends.
"""

import math
from fractions import Fraction


def bspline_exact(n: int, t: Fraction) -> Fraction:
    """The central B-spline M_n at t, from its truncated-power sum.

        M_n(t) = 1/(n-1)! * sum_{i=0}^{n} (-1)^i C(n,i) (t + n/2 - i)_+^{n-1}

    In rationals the sum does not cancel.  Order 2 and up only: they are
    continuous, so no convention at the knots enters.
    """
    if n < 2:
        raise ValueError("order 2 and up only")
    half = Fraction(n, 2)
    if abs(t) >= half:
        return Fraction(0)
    total = sum(
        (-1) ** i * math.comb(n, i) * (t + half - i) ** (n - 1)
        for i in range(n + 1)
        if t + half - i > 0
    )
    return total / math.factorial(n - 1)


def axis_weights(n: int, w: int, x: float) -> dict[int, Fraction]:
    """k -> M_n(wx - k) for every lattice index k where it is not zero."""
    u = w * Fraction(x)
    lo = math.floor(u - Fraction(n, 2))
    weights = {k: bspline_exact(n, u - k) for k in range(lo, lo + n + 1)}
    return {k: v for k, v in weights.items() if v}


def gw_exact(f, n: int, w: int, x: float, y: float) -> tuple[Fraction, Fraction]:
    """G_w f(x, y) with kernel M_n x M_n, and its absolute mass sum |chi * f|.

    f is called on Fractions, so it must use only + - * and powers.
    """
    ax, ay = axis_weights(n, w, x), axis_weights(n, w, y)
    value = mass = Fraction(0)
    for k, a in ax.items():
        for j, b in ay.items():
            term = a * b * f(Fraction(k, w), Fraction(j, w))
            value += term
            mass += abs(term)
    return value, mass
