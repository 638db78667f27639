"""Scalar q-arithmetic primitives.

Everything here is a pure function of its numeric inputs plus a
:class:`QContext`, which carries the base q and the truncation policy for
infinite sums and products.  Arithmetic is duck typed: with ``float``
inputs the computations run in IEEE double precision (15 to 17
significant digits); feeding ``mpmath.mpf`` values through the same entry
points runs them at whatever precision mpmath is configured for.  All
values are immutable and safe to share between threads.

Only real arguments with 0 < q < 1 are supported.  The q -> 1 limits live
in :mod:`qsympoly.classical`; complex bases and arguments are out of
scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .errors import DivergenceError, IllDefinedSeriesError, TruncationError

__all__ = [
    "QContext",
    "HypSeriesSpec",
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


@dataclass(frozen=True)
class HypSeriesSpec:
    """Parameters of a basic hypergeometric series r_phi_s.

    ``upper`` and ``lower`` hold the numerator and denominator
    parameters, ``base`` is the series base (q**2 for every series used
    by this package) and ``argument`` is the point z at which the series
    is summed.  Lower parameters of the form base**(-k), k = 0, 1, ...,
    make the series ill defined; this is detected lazily during
    evaluation, up to the summed length.
    """

    upper: tuple
    lower: tuple
    base: float
    argument: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "upper", tuple(self.upper))
        object.__setattr__(self, "lower", tuple(self.lower))
        if not (0 < self.base < 1):
            raise ValueError(f"series base must satisfy 0 < base < 1, got {self.base!r}")


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


def q_shifted_factorial_inf(x, ctx: QContext, base=None):
    """Infinite product (x; base)_inf = prod_{j>=0} (1 - base**j x).

    Converges for every finite real x since 0 < base < 1.  Truncated once
    |base**j x| < ctx.eps_term; raises TruncationError if ctx.max_terms
    factors did not reach that threshold.
    """
    b = ctx.q if base is None else base
    prod = 1 + x * 0
    for j in range(ctx.max_terms):
        t = b**j * x
        if abs(t) < ctx.eps_term:
            return prod
        prod = prod * (1 - t)
    raise TruncationError(
        f"(x; q)_inf with x={x!r} did not meet eps_term={ctx.eps_term} "
        f"within max_terms={ctx.max_terms}"
    )


def q_binomial(n: int, m: int, ctx: QContext, base=None):
    """Gaussian binomial coefficient [n, m] = (q;q)_n / ((q;q)_m (q;q)_{n-m})."""
    if not (0 <= m <= n):
        raise ValueError(f"q-binomial needs 0 <= m <= n, got n={n}, m={m}")
    b = ctx.q if base is None else base
    num = q_shifted_factorial(b, n, ctx, base=b)
    den = q_shifted_factorial(b, m, ctx, base=b) * q_shifted_factorial(b, n - m, ctx, base=b)
    return num / den


def _termination_index(upper, base):
    """Index K such that (a; base)_k = 0 for k > K, or None.

    A series terminates when some upper parameter equals base**(-K).  The
    match is detected by rounding -log(a)/log(base) and verifying
    |a * base**K - 1| <= 1e-9, so callers do not have to produce the
    parameter with bit-exact rounding.  Parameters within 1e-9 of a
    base**(-K) are therefore treated as exact terminators.
    """
    best = None
    logb = math.log(float(base))
    for a in upper:
        av = float(a)
        if av <= 0:
            continue
        k = round(-math.log(av) / logb) if av != 1 else 0
        if k < 0:
            continue
        if abs(a * base**k - 1) <= 1e-9:
            best = k if best is None else min(best, k)
    return best


def basic_hypergeometric(spec: HypSeriesSpec, ctx: QContext):
    """Sum of the basic hypergeometric series r_phi_s.

    Terms carry the standard correction ((-1)**k base**binom(k,2))**(1+s-r)
    so that series with s + 1 != r are summed with their defining factor.
    Terminating series (an upper parameter equal to base**(-K)) are summed
    exactly through k = K; otherwise summation stops once two consecutive
    terms drop below eps_term relative to the partial sum, and raises
    DivergenceError if that never happens within max_terms.
    """
    base = spec.base
    z = spec.argument
    corr = 1 + len(spec.lower) - len(spec.upper)
    K = _termination_index(spec.upper, base)
    term = 1 + z * 0
    total = term
    prev_small = False
    k = 0
    while True:
        if K is not None and k >= K:
            return total
        if K is None and k >= ctx.max_terms:
            raise DivergenceError(
                f"series did not converge within max_terms={ctx.max_terms}"
            )
        bk = base**k
        num = 1 + z * 0
        for a in spec.upper:
            num = num * (1 - a * bk)
        den = 1 - base ** (k + 1)
        for bparam in spec.lower:
            f = 1 - bparam * bk
            if f == 0:
                raise IllDefinedSeriesError(
                    f"lower parameter {bparam!r} equals base**(-{k}); series undefined"
                )
            den = den * f
        ratio = (num / den) * z
        if corr:
            ratio = ratio * (-bk) ** corr
        term = term * ratio
        total = total + term
        k += 1
        if K is None:
            if abs(term) > 1e100:
                raise DivergenceError("series terms are growing; not summable")
            small = abs(term) <= ctx.eps_term * max(1.0, abs(total))
            if small and prev_small:
                return total
            prev_small = small


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
