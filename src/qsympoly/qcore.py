"""Scalar q-arithmetic primitives.

Everything here is a pure function of its numeric inputs, most of them
together with a :class:`QContext`, which carries the base q and the
truncation policy for infinite sums and products.  Arithmetic is duck
typed: with ``float`` inputs the computations run in IEEE double
precision (15 to 17 significant digits); feeding ``mpmath.mpf`` values
through the same entry points runs them at whatever precision mpmath is
configured for.  All values are immutable and safe to share between
threads: the value types are slotted :class:`Record` classes.

Only real arguments with 0 < q < 1 are supported.  The q -> 1 limits live
in :mod:`qsympoly.classical`; complex bases and arguments are out of
scope.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

from .errors import IllDefinedSeriesError, QSymPolyError, TruncationError, ZeroDenominatorError


def _is_plain(v) -> bool:
    return isinstance(v, (int, float))


def _typed(name: str) -> Callable:
    """The function ``name`` of math for an int or float argument, and of
    mpmath for any other, so that its result follows the argument's type."""
    plain = getattr(math, name)

    def typed(v):
        if _is_plain(v):
            return plain(v)
        import mpmath

        return getattr(mpmath, name)(v)

    typed.__name__ = typed.__qualname__ = f"{name}_"
    typed.__doc__ = f"{name}() that follows the numeric type of its argument."
    return typed


exp_, log_, sqrt_, isfinite_ = map(_typed, ("exp", "log", "sqrt", "isfinite"))


class Record:
    """Base of the immutable value types.  A subclass names its fields in
    ``__slots__``, in constructor order, and its values are equal, hashed,
    printed and pickled by their fields.  Record.__init__ takes every
    field, by position or keyword; a subclass with defaults or checks has
    its own __init__, which hands every field to Record.__init__, since
    assignment raises AttributeError."""

    __slots__ = ()

    def __init_subclass__(cls):
        # the slots' own setters, which __setattr__ does not reach
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs:
            args += tuple(kwargs.pop(name) for name in names[len(args):] if name in kwargs)
        if kwargs or len(args) != len(names):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
        for setter, value in zip(self._setters, args):
            setter(self, value)

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # rebuilt from the fields, not by __init__, which may derive one of
        # them from the state of the process (QContext.eps_term)
        return _restore, (type(self), self._values())


def _restore(cls, values):
    record = object.__new__(cls)
    Record.__init__(record, *values)
    return record


class QContext(Record):
    """Base q together with the truncation policy of the library.

    q must lie strictly inside (0, 1).  ``max_terms`` caps the length of
    any series or product.  ``eps_term``, the threshold below which series
    terms and product factor deviations count as converged, follows from
    q: 1e-17 for a float q, and 2^-(prec + 4) for an mpf q, at the mpmath
    precision in force when the context is built.
    """

    __slots__ = ("q", "max_terms", "eps_term")

    def __init__(self, q: float, max_terms: int = 10_000) -> None:
        if not (0 < q < 1):
            raise ValueError(f"base q must satisfy 0 < q < 1, got {q!r}")
        if max_terms < 1:
            raise ValueError("max_terms must be at least 1")
        eps = 1e-17
        if not _is_plain(q):
            import mpmath

            if isinstance(q, mpmath.mpf):
                eps = mpmath.ldexp(1, -(mpmath.mp.prec + 4))
        super().__init__(q, max_terms, eps)


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


# the head of a product runs to the first j where every |b^j x| is below this
TAIL_SWITCH = 1e-3


def q_shifted_factorial_inf(x, ctx: QContext, base=None, over=0):
    """Infinite product (x; base)_inf = prod_{j>=0} (1 - base**j x), or with
    ``over`` the ratio (x; base)_inf / (over; base)_inf as one product of
    quotients (1 - base^j x) / (1 - base^j over).  ``base`` defaults to ctx.q.

    The head multiplies the quotients down to the first j where both
    |base^j x| and |base^j over| are below TAIL_SWITCH, so every factor
    <= 0, and every exact zero, lies in the head.  If those two together
    are at most ctx.eps_term the product is done; otherwise the rest is
    exp(S(base^j over) - S(base^j x)) with the log series (_log_tail_sum)

        S(t) = -log (t; base)_inf = sum_(k>=1) t^k / (k (1 - base^k))

    (Gasper and Rahman, *Basic Hypergeometric Series*, section 1.3).  Where
    both factors are positive, every quotient lies on the same side of 1
    (base^j x / base^j over = x / over), so the partial products move
    monotonically toward the ratio: near base = 1, where each product alone
    leaves the float range, a ratio of order one stays in it.  Raises
    TruncationError if ctx.max_terms factors did not end the head,
    ZeroDenominatorError on an exactly zero denominator factor, and
    QSymPolyError if a float result is subnormal, non-finite, or 0 with no
    zero numerator factor.
    """
    b = ctx.q if base is None else base
    eps = ctx.eps_term
    ratio = 1 + (x + over) * 0  # carries the numeric type of the arguments
    for j in range(ctx.max_terms):
        bj = b**j
        tn, td = bj * x, bj * over
        if abs(tn) < TAIL_SWITCH and abs(td) < TAIL_SWITCH:
            if abs(tn) + abs(td) > eps:
                ratio = ratio * exp_(_log_tail_sum(tn, td, log_(b), eps))
            break
        den = 1 - td
        if den == 0:
            raise ZeroDenominatorError("weight denominator product vanishes")
        ratio = ratio * ((1 - tn) / den)
    else:
        raise TruncationError(
            f"(x; q)_inf / (y; q)_inf with x={x!r}, y={over!r} did not reach its tail "
            f"within max_terms={ctx.max_terms}"
        )
    if isinstance(ratio, float) and not sys.float_info.min <= abs(ratio) <= sys.float_info.max:
        # 1 - t == 0 exactly iff t == 1
        if not (ratio == 0 and any(b**i * x == 1 for i in range(j))):
            raise QSymPolyError(
                f"(x; q)_inf / (y; q)_inf with x={x!r}, y={over!r} leaves the float range: {ratio!r}"
            )
    return ratio


def _log_tail_sum(tn, td, lb, eps):
    """S(td) - S(tn) = log ((tn; b)_inf / (td; b)_inf) for |tn|, |td| < 1,
    with S(t) = sum_(k>=1) t^k / (k (1 - b^k)), given lb = log b.

    1 - b^k = -expm1(k lb) keeps its digits near b = 1, and both series
    share it.  The sum is the log of a ratio, so an absolute error eps in
    it is a relative error eps in the ratio: it stops at the first k whose
    two terms together are at most eps, which t = 0 and an underflowed
    t^k reach too.
    """
    if _is_plain(lb):  # every k lb has the type of lb: choose expm1 once
        expm1 = math.expm1
    else:
        import mpmath

        expm1 = mpmath.expm1
    total = 0
    tnk, tdk = tn, td
    k = 1
    while True:
        scale = -k * expm1(k * lb)
        total = total + (tdk - tnk) / scale
        if abs(tnk) + abs(tdk) <= eps * scale:
            return total
        k += 1
        tnk, tdk = tnk * tn, tdk * td


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
