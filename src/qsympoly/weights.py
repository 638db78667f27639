"""Orthogonality weights from the Pearson q-difference equation.

W solves D_q(A W) = B W with A = x^2 (a x^2 + b), B = x (c x^2 + d),
equivalently the first-order ratio relation

    W(qx)/W(x) = (x^2 (a + c(q-1)) + b + d(q-1)) / (q^2 (a q^2 x^2 + b)).

The evaluable object of interest is W*(x) = x^2 W(x): the x^2 factor
cancels the 1/x^2 pole of the raw solution analytically, so W* extends
continuously to x = 0.  Solutions of the ratio relation are unique only
up to a q-periodic factor; it is fixed to 1 here, which is harmless
because Jackson integration samples a single geometric orbit on which
any such factor is constant and drops out of normalized quantities.
"""

from __future__ import annotations

from .errors import InvalidBaseError, ZeroDenominatorError
from .qcore import QContext, Record, exp_, isfinite_, log_, max_or_nan, q_shifted_factorial_inf
from .sympoly import CharVector, _resonant

# interior grid points alpha q^j, j = 1 .. BOUNDARY_GRID, of the boundary check
BOUNDARY_GRID = 128


def pearson_ratio(V: CharVector, ctx: QContext, x):
    """The Pearson ratio W(qx)/W(x) in closed form."""
    q = ctx.q
    t1 = V.a * q * q * x * x
    den = t1 + V.b
    if _resonant(den, t1, V.b):
        raise ZeroDenominatorError("Pearson ratio pole: a q^2 x^2 = -b")
    num = x * x * (V.a + V.c * (q - 1)) + V.b + V.d * (q - 1)
    return num / (q * q * den)


def _power_base(V: CharVector, q):
    base = 1 + V.d * (q - 1) / V.b
    if base <= 0:
        raise InvalidBaseError(
            f"power base 1 + d(q-1)/b = {base!r} must be positive"
        )
    return base


def weight_general(V: CharVector, ctx: QContext, x):
    """The raw Pearson solution W(x) = W*(x) / x^2, for a, b nonzero and
    x != 0 (see weight_star)."""
    if x == 0:
        raise ValueError("W has a 1/x^2 singularity at x = 0; use weight_star")
    return weight_star(V, ctx, x) / (x * x)


def weight_star(V: CharVector, ctx: QContext, x):
    """W*(x) = x^2 W(x) with the x^2 cancelled analytically:

        (1 + d(q-1)/b)^(log x^2 / (2 log q))
            * (-a q^2 x^2 / b; q^2)_inf / (-(a + c(q-1)) x^2 / (b + d(q-1)); q^2)_inf.

    The real power is evaluated in log space; a nonpositive base raises
    InvalidBaseError rather than continuing into complex values.  The two
    products are one product of quotients (q_shifted_factorial_inf with
    ``over``), which stays in the float range near q = 1, where each
    product alone leaves it, whenever W* itself does.
    Finite for all x in the support; at x = 0 the continuous extension is
    returned in the type of x (1 when d = 0, else 0 or +inf depending on
    whether the power base lies below or above 1).
    """
    if V.a == 0 or V.b == 0:
        raise ValueError("the closed-form weight needs a != 0 and b != 0")
    q = ctx.q
    base = _power_base(V, q)
    if x == 0:
        # x * 0 + v is v in the type of x
        return x * 0 + (1.0 if base == 1 else 0.0 if base < 1 else float("inf"))
    x2 = x * x
    # exp(0 * ...) is exactly 1, so base == 1 skips the logarithms
    power = 1 if base == 1 else exp_(log_(base) * log_(x2) / (2 * log_(q)))
    top = -V.a * q * q * x2 / V.b
    bot = -(V.a + V.c * (q - 1)) * x2 / (V.b + V.d * (q - 1))
    return power * q_shifted_factorial_inf(top, ctx, base=q * q, over=bot)


def _weight_star_grid(V: CharVector, ctx: QContext, alpha, n: int) -> list:
    """The pairs (x_j, weight_star(x_j)) at x_j = alpha q^j != 0, j = 0 .. n.

    One weight_star call at alpha, then the Pearson step
    W*(q x) = q^2 pearson_ratio(x) W*(x), bit for bit: its x-free factors
    are formed once, and each step keeps its operand order and resonance
    test.  The denominator factors of W* at alpha q^j are a suffix of those
    at alpha.  At the support endpoint pearson_ratio's denominator at
    alpha q^j is b (1 - q^(2j+2)) != 0, so every error comes from that one
    call; at any other alpha a step's resonance test can raise too.
    Against weight_star at 30 digits at the same float inputs (four
    families, q in {0.3, 0.5, 0.9}, n = 128) the float grid errs by at
    most 1.6e-14 relative, and pointwise float weight_star by 2.3e-14.
    """
    q = ctx.q
    qq, aqq = q * q, V.a * q * q
    ae, dq1 = V.a + V.c * (q - 1), V.d * (q - 1)
    x = alpha
    w = weight_star(V, ctx, alpha)
    grid = [(x, w)]
    for j in range(1, n + 1):
        t1 = aqq * x * x
        den = t1 + V.b
        if _resonant(den, t1, V.b):
            raise ZeroDenominatorError("Pearson ratio pole: a q^2 x^2 = -b")
        w = w * (qq * ((x * x * ae + V.b + dq1) / (qq * den)))
        x = alpha * q**j
        grid.append((x, w))
    return grid


class WeightGridReport(Record):
    __slots__ = ("positive", "min_value", "max_value", "first_bad_index")


def weight_grid_report(V: CharVector, alpha, ctx: QContext, n_terms: int) -> WeightGridReport:
    """Positivity of W* on the geometric grid alpha q^j, j = 0 .. n_terms.

    W* reads x only through x^2, so it is even bit for bit and the
    mirrored points -alpha q^j need no evaluation of their own.  No
    command calls it; it stays only because ``bench/tracer.py``
    ``BOUNDARIES`` names it (ROADMAP item 18's benchmark half deletes both).
    """
    positive = True
    vmin, vmax = None, None
    bad = None
    for j in range(n_terms + 1):
        w = weight_star(V, ctx, alpha * ctx.q**j)
        if not (isfinite_(w) and w > 0):
            positive = False
            bad = bad if bad is not None else j
            continue
        vmin = w if vmin is None else min(vmin, w)
        vmax = w if vmax is None else max(vmax, w)
    return WeightGridReport(positive, vmin, vmax, bad)


class BoundaryReport(Record):
    __slots__ = ("boundary_value", "interior_max", "ratio")


def boundary_vanishing_check(V: CharVector, alpha, ctx: QContext) -> BoundaryReport:
    """Measure how far A(x) W(x) = (a x^2 + b) W*(x) vanishes at the endpoint alpha.

    The endpoint value is compared against the maximum of |(a x^2 + b) W*|
    over the interior grid alpha q^j, j = 1 .. BOUNDARY_GRID, as the ratio
    |boundary| / interior_max; the report takes no tolerance, and
    ``check boundary`` compares the ratio with its own.  A NaN interior
    value becomes the maximum, so the ratio is NaN and fails any tolerance.
    """
    grid = _weight_star_grid(V, ctx, alpha, BOUNDARY_GRID)
    boundary = (V.a * alpha * alpha + V.b) * grid[0][1]
    interior = max_or_nan(abs((V.a * x * x + V.b) * w) for x, w in grid[1:])
    ratio = abs(boundary) / interior if interior != 0 else float("inf")
    return BoundaryReport(boundary, interior, ratio)
