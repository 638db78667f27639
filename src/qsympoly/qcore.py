"""Scalar q-arithmetic primitives.

Everything here is a pure function of its numeric inputs, most of them
together with a :class:`QContext`, which carries the base q and the
truncation policy for infinite sums and products.  Arithmetic is duck
typed: with ``float`` inputs the computations run in IEEE double
precision (15 to 17 significant digits); feeding ``mpmath.mpf`` values
through the same entry points runs them at whatever precision mpmath is
configured for.  All values are immutable and safe to share between
threads.

Only real arguments with 0 < q < 1 are supported.  The q -> 1 limits live
in :mod:`qsympoly.classical`; complex bases and arguments are out of
scope.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable

from .errors import IllDefinedSeriesError, QSymPolyError, TruncationError

__all__ = [
    "QContext",
    "q_number",
    "q_shifted_factorial",
    "q_shifted_factorial_inf",
    "q_binomial",
    "basic_hypergeometric",
    "q_derivative",
    "q_derivative_inv",
    "sigma_parity",
]


def _is_plain(v) -> bool:
    return isinstance(v, (int, float))


def exp_(v):
    """exp() that follows the numeric type of its argument."""
    if _is_plain(v):
        return math.exp(v)
    import mpmath

    return mpmath.exp(v)


def log_(v):
    """log() that follows the numeric type of its argument."""
    if _is_plain(v):
        return math.log(v)
    import mpmath

    return mpmath.log(v)


def expm1_(v):
    """expm1() = exp() - 1 that follows the numeric type of its argument."""
    if _is_plain(v):
        return math.expm1(v)
    import mpmath

    return mpmath.expm1(v)


def sqrt_(v):
    """sqrt() that follows the numeric type of its argument."""
    if _is_plain(v):
        return math.sqrt(v)
    import mpmath

    return mpmath.sqrt(v)


def isfinite_(v) -> bool:
    if _is_plain(v):
        return math.isfinite(v)
    import mpmath

    return bool(mpmath.isfinite(v))


@dataclass(frozen=True)
class QContext:
    """Base q together with the truncation policy of the library.

    q must lie strictly inside (0, 1).  ``max_terms`` caps the length of
    any series or product.  ``eps_term``, the threshold below which series
    terms and product factor deviations count as converged, follows from
    q: 1e-17 for a float q, and 2^-(prec + 4) for an mpf q, at the mpmath
    precision in force when the context is built.
    """

    q: float
    max_terms: int = 10_000
    eps_term: float = field(init=False)

    def __post_init__(self) -> None:
        if not (0 < self.q < 1):
            raise ValueError(f"base q must satisfy 0 < q < 1, got {self.q!r}")
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")
        eps = 1e-17
        if not _is_plain(self.q):
            import mpmath

            if isinstance(self.q, mpmath.mpf):
                eps = mpmath.ldexp(1, -(mpmath.mp.prec + 4))
        object.__setattr__(self, "eps_term", eps)


def q_number(z, ctx: QContext):
    """The q-number [z]_q = (q**z - 1)/(q - 1).

    z may be any real number, not just an integer; shifted arguments such
    as [1 - n]_q occur in the eigenvalue formulas.  [z]_q -> z as q -> 1.
    """
    q = ctx.q
    return (q**z - 1) / (q - 1)


def q_shifted_factorial(x, n: int, ctx: QContext, base=None):
    """Finite q-shifted factorial (x; base)_n = prod_{j<n} (1 - base**j x).

    The empty product (n = 0) is 1.  ``base`` defaults to ctx.q; the
    explicit argument exists because base q**2 and q**4 factorials occur
    in the closed-form norms.
    """
    if n < 0:
        raise ValueError(f"factorial length must be nonnegative, got {n}")
    b = ctx.q if base is None else base
    prod = 1 + x * 0  # carries the numeric type of x
    for j in range(n):
        prod = prod * (1 - b**j * x)
    return prod


# the head of (x; b)_inf runs at least to the first |b^j x| below this
TAIL_SWITCH = 1e-3
# the time of one term of the tail's log series, in factors of the product
TAIL_TERM_COST = 4


def q_shifted_factorial_inf(x, ctx: QContext, base=None):
    """Infinite product (x; base)_inf = prod_{j>=0} (1 - base**j x).

    The head multiplies the factors down to the first t = base**j x with
    |t| < TAIL_SWITCH, and if |t| < ctx.eps_term the product is done.  So
    every factor <= 0, and every exact zero, lies in the head.  The rest
    is (t; base)_inf = exp(-S) with the log series

        S = sum_(k>=1) t^k / (k (1 - base^k))

    (Gasper and Rahman, *Basic Hypergeometric Series*, section 1.3),
    summed until a term falls below eps_term relative to S, if that is
    shorter than the factors left above eps_term (_tail_is_shorter);
    otherwise the head multiplies those too.  Raises TruncationError if
    ctx.max_terms factors did not end the head, and QSymPolyError if a
    float product is subnormal, non-finite, or 0 with no zero factor.
    """
    b = ctx.q if base is None else base
    eps = ctx.eps_term
    prod = 1 + x * 0
    switch = TAIL_SWITCH
    for j in range(ctx.max_terms):
        t = b**j * x
        if abs(t) < switch:
            if abs(t) < eps:
                break
            switch = eps
            if _tail_is_shorter(t, b, eps):
                prod = prod * exp_(-_log_tail_sum(t, log_(b), eps))
                break
        prod = prod * (1 - t)
    else:
        raise TruncationError(
            f"(x; q)_inf with x={x!r} did not meet eps_term={ctx.eps_term} "
            f"within max_terms={ctx.max_terms}"
        )
    if isinstance(prod, float) and not sys.float_info.min <= abs(prod) <= sys.float_info.max:
        # 1 - t == 0 exactly iff t == 1
        if not (prod == 0 and any(b**i * x == 1 for i in range(j))):
            raise QSymPolyError(f"(x; q)_inf with x={x!r} leaves the float range: {prod!r}")
    return prod


def _tail_is_shorter(t, b, eps) -> bool:
    """Whether the log series of (t; b)_inf, at TAIL_TERM_COST factors per
    term and one more for its log and exp, costs fewer factors than the
    product has left above eps."""
    if _is_plain(eps):
        terms = math.log(eps) / math.log(abs(t))
    else:
        import mpmath

        # from the binary exponents: no float underflow at any precision
        terms = (mpmath.mag(eps) - 0.5) / (mpmath.mag(t) - 0.5)
    return abs(t) * float(b) ** (TAIL_TERM_COST * (terms + 1)) >= eps


def _log_tail_sum(t, lb, eps):
    """S = sum_(k>=1) t^k / (k (1 - b^k)) = -log (t; b)_inf for |t| < 1,
    given lb = log b; 1 - b^k = -expm1(k lb) keeps its digits near b = 1."""
    total = 0
    tk = t
    k = 1
    while True:
        term = tk / (-k * expm1_(k * lb))
        total = total + term
        if abs(term) < eps * abs(total):
            return total
        k += 1
        tk = tk * t


def q_binomial(n: int, m: int, ctx: QContext, base=None):
    """Gaussian binomial coefficient [n, m] = (q;q)_n / ((q;q)_m (q;q)_{n-m})."""
    if not (0 <= m <= n):
        raise ValueError(f"q-binomial needs 0 <= m <= n, got n={n}, m={m}")
    b = ctx.q if base is None else base
    num = q_shifted_factorial(b, n, ctx, base=b)
    den = q_shifted_factorial(b, m, ctx, base=b) * q_shifted_factorial(b, n - m, ctx, base=b)
    return num / den


def basic_hypergeometric(upper, lower, base, z, K: int):
    """Sum over k = 0 .. K of the balanced series r_phi_(r-1) in base ``base``.

    ``upper`` and ``lower`` hold the numerator and denominator parameters,
    with one more upper than lower, so the terms need no
    ((-1)**k base**binom(k,2)) correction.  The term ratio is formed as
    num/den then times z.  For a terminating series, an upper parameter
    equal to base**(-K), the sum is the whole series.  A lower factor
    that is exactly 0 within the summed length raises
    IllDefinedSeriesError.
    """
    one = 1 + z * 0  # carries the numeric type of z
    term = total = one
    for k in range(K):
        bk = base**k
        num = one
        for a in upper:
            num = num * (1 - a * bk)
        den = 1 - base ** (k + 1)
        for bparam in lower:
            f = 1 - bparam * bk
            if f == 0:
                raise IllDefinedSeriesError(
                    f"lower parameter {bparam!r} equals base**(-{k}); series undefined"
                )
            den = den * f
        term = term * ((num / den) * z)
        total = total + term
    return total


def q_derivative(f: Callable, x, ctx: QContext, derivative_at_zero=None):
    """Forward q-difference operator D_q f(x) = (f(qx) - f(x)) / ((q-1) x).

    At x = 0 the operator is defined as f'(0); the caller must pass that
    value explicitly via ``derivative_at_zero`` because the library never
    differentiates numerically.
    """
    if x == 0:
        if derivative_at_zero is None:
            raise ValueError("q-derivative at x = 0 requires an explicit f'(0)")
        return derivative_at_zero
    q = ctx.q
    return (f(q * x) - f(x)) / ((q - 1) * x)


def q_derivative_inv(f: Callable, x, ctx: QContext):
    """Inverse-base q-difference operator, D_{1/q} f(x) = (f(x/q) - f(x)) / ((1/q - 1) x)."""
    if x == 0:
        raise ValueError("inverse-base q-derivative is undefined at x = 0")
    q = ctx.q
    return (f(x / q) - f(x)) / ((1 / q - 1) * x)


def max_or_nan(values):
    """The largest of the nonnegative values (0.0 if there are none), or NaN
    as soon as one value is NaN.

    max() keeps its running value when compared with NaN, so a NaN
    residual would otherwise vanish from the reduction and pass.
    """
    worst = 0.0
    for r in values:
        if r != r:
            return r
        worst = max(worst, r)
    return worst


def sigma_parity(n: int) -> int:
    """Parity indicator (1 - (-1)**n) / 2: 0 for even n, 1 for odd n.

    Extends to negative integers by the same formula, so sigma_parity(-1)
    is 1.
    """
    return n % 2
