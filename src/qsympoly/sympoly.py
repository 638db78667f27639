"""The symmetric four-parameter polynomial engine.

A characteristic vector (a, b, c, d) fixes one member of the symmetric
family through the second-order q-difference equation

    x^2 (a x^2 + b) D_q D_{1/q} phi + x (c x^2 + d) D_q phi
        + (lambda_n x^2 - sigma_n d) phi = 0.

This module provides the eigenvalues, the x^(n-2) coefficient delta_n of
the monic solution, the three-term recurrence coefficient C_n (general
and parity-specialized closed forms), polynomial construction by the
recurrence, the explicit sum and terminating 2phi1 representations, the
monic normalization factor, exact q-difference-equation residuals, and
the positive/quasi-definite classification.

Recurrence denominators can vanish on a q-geometric set of parameters;
_resonant states the one test of that resonance for each arithmetic, and
it is reported via ResonanceError, never regularized.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import QSymPolyError, ResonanceError, ZeroDenominatorError
from .qcore import (
    QContext,
    Record,
    _is_plain,
    basic_hypergeometric,
    isfinite_,
    q_number,
    q_shifted_factorial,
    sigma_parity,
)

# |denominator| below this multiple of its largest additive term counts as
# vanishing in float arithmetic; _resonant scales it to an mpf's precision
RESONANCE_GUARD = 1e-13


def _resonant(den, t1, t2, t3=0) -> bool:
    """True when den, the sum of the additive terms t1, t2 (and t3), vanishes
    against the largest of them: the one resonance test of the package.  An
    exact int or Fraction den vanishes only when it is 0.  A float vanishes
    within RESONANCE_GUARD of the largest term, and an mpf within
    RESONANCE_GUARD 2^(53 - prec) of it at the working precision."""
    if isinstance(den, float):
        guard = RESONANCE_GUARD
    elif isinstance(den, (int, Fraction)):
        return den == 0
    else:
        import mpmath

        guard = mpmath.ldexp(RESONANCE_GUARD, 53 - mpmath.mp.prec)
    scale = max(abs(t1), abs(t2), abs(t3))
    return scale == 0 or abs(den) <= guard * scale


class CharVector(Record):
    """The four free parameters (a, b, c, d) of one symmetric family."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: float, b: float, c: float, d: float) -> None:
        super().__init__(a, b, c, d)
        if not all(isfinite_(v) for v in self.as_tuple()):
            raise ValueError(
                f"characteristic vector entries must be finite, got {self.as_tuple()}"
            )
        if self.a == 0 and self.c == 0:
            raise ValueError("degenerate parameters: a and c must not both vanish")

    def as_tuple(self) -> tuple:
        return (self.a, self.b, self.c, self.d)


def _a_eff(V: CharVector, q):
    # a + c(q-1): the combination controlling every recurrence denominator
    return V.a + V.c * (q - 1)


class SymPolynomial(Record):
    """A monic symmetric polynomial, stored by monomial coefficients.

    Coefficients at indices of parity opposite to the degree are exactly
    zero, so evaluation runs as a Horner scheme in x**2 with an x**parity
    prefactor; phi(-x) == (-1)**degree phi(x) then holds bit for bit.
    """

    __slots__ = ("degree", "coeffs")

    @property
    def parity(self) -> int:
        return self.degree % 2

    def __init__(self, degree: int, coeffs: tuple) -> None:
        super().__init__(degree, coeffs)
        if len(self.coeffs) != self.degree + 1:
            raise ValueError("coefficient count must be degree + 1")
        for k, ck in enumerate(self.coeffs):
            if (k - self.parity) % 2 and ck != 0:
                raise ValueError(f"nonzero coefficient at opposite-parity power {k}")
        if self.coeffs[-1] != 1:
            raise ValueError("monic polynomial must have leading coefficient 1")

    def __call__(self, x):
        return _sym_horner(self.coeffs, x)

    def magnitude(self, x):
        """Sum of |c_k| |x|**k, the natural scale of an evaluation at x."""
        return _sym_horner(tuple(map(abs, self.coeffs)), abs(x))


def _sym_horner(coeffs, x):
    """sum_k coeffs[k] x^k for coefficients of one parity, that of the
    degree len(coeffs) - 1: a Horner scheme in x**2 times x**parity."""
    degree = len(coeffs) - 1
    parity = degree % 2
    t = x * x
    acc = coeffs[degree]
    for k in range(degree - 2, parity - 1, -2):
        acc = acc * t + coeffs[k]
    return acc * x**parity


def eigenvalue(n: int, V: CharVector, ctx: QContext):
    """Eigenvalue lambda_n = -[n]_q (c - [1-n]_q a)."""
    return -q_number(n, ctx) * (V.c - q_number(1 - n, ctx) * V.a)


def delta(n: int, V: CharVector, ctx: QContext):
    """Coefficient of x**(n-2) in the monic polynomial of degree n.

    Closed rational form obtained by matching the x**n coefficient of the
    q-difference equation.  Raises ResonanceError when the denominator
    (q+1)(a q^3 - q^(2n)(a + c(q-1))) vanishes.
    """
    q = ctx.q
    a, b, c, d = V.as_tuple()
    sn = sigma_parity(n)
    sn1 = sigma_parity(n - 1)
    t1 = a * q**3
    t2 = q ** (2 * n) * _a_eff(V, q)
    if _resonant(t1 - t2, t1, t2):
        raise ResonanceError(f"delta denominator vanishes at n={n}")
    num = q**2 * (
        -b * (q - 1) * q * q_number(n - 1, ctx) * q_number(n, ctx)
        - d * q ** (2 * n)
        + d * q**n * (q * sn + sn1)
    )
    return num / ((q + 1) * (t1 - t2))


def _checked_den(t1, t2, t3, n: int):
    den = t1 + t2 + t3
    if _resonant(den, t1, t2, t3):
        raise ResonanceError(f"C_{n} denominator vanishes")
    return den


def _C_terms(V: CharVector, ctx: QContext):
    """n -> C_n and the three additive terms of its numerator,
    q^(n+1) (t1 + t2 + t3), with every n-independent factor formed once;
    the per-n remainder keeps the closed form's operand order, bit for bit."""
    q = ctx.q
    a, b, c, d = V.as_tuple()
    ae = _a_eff(V, q)
    den1, den3 = a * a * q**4, -a * (q**3 + q)
    dq, dq1, aqq = d - d * q, d * (q - 1), a * q * q
    # by sigma_n and sigma_(n-1); a product with sigma = 0 fixes a zero's sign
    u1 = (dq * 0 - b, dq - b)
    u2 = a * (b * (q * q + 1) + dq1 * q * q) + b * c * (q - 1)
    t3s = (-(aqq * (b + dq1 * 0)), -(aqq * (b + dq1)))

    def terms(n: int):
        q2n = q ** (2 * n)
        den = _checked_den(den1, q ** (4 * n) * ae * ae, den3 * q2n * ae, n)
        t1 = q2n * ae * u1[n % 2]
        t2 = q**n * u2
        t3 = t3s[(n - 1) % 2]
        return q ** (n + 1) * (t1 + t2 + t3) / den, (t1, t2, t3)

    return terms


def _dyadic(V: CharVector, q) -> tuple:
    """((a, b, c, d), (Q, E)): ints with V = (a, b, c, d) / F and q = Q / E
    exactly, where F and E are powers of two.  A float or an int is read by
    ``as_integer_ratio``, an mpf by its mantissa and exponent.  Any other
    type, such as Fraction, raises QSymPolyError, as it has no such form or
    would be rounded into one silently."""

    def pair(v):
        if _is_plain(v):
            return v.as_integer_ratio()
        if not hasattr(v, "_mpf_"):
            raise QSymPolyError(
                f"the Gram matrix needs float, int or mpf input, not {type(v).__name__}")
        sign, man, exp, _ = v._mpf_
        man = -man if sign else man
        return (man << exp, 1) if exp >= 0 else (man, 1 << -exp)

    qn, *vs = map(pair, (q, *V.as_tuple()))
    F = max(den for _, den in vs)
    return tuple(num * (F // den) for num, den in vs), qn


def _C_exact(V: tuple, q: tuple, n_max: int) -> list:
    """[(num, den)] for n = 1 .. n_max, ints with den > 0 and num / den = C_n
    exactly, for V and q as _dyadic gives them: V as ints on one scale,
    which C_n does not depend on, and q = Q / E with E = 2^e.  _C_terms's
    closed form in the same grouping, each term an int at one power of
    two: step n is scaled by 2^(4 e n), so q^n = Q^n 2^-(e n) is the int
    Q^n and the ints are about 4 e n bits wide.  The int den is resonant
    only when it is 0, so it is compared with 0 here, as _resonant would."""
    a, b, c, d = V
    Q, E = q
    e = E.bit_length() - 1
    ae = a * E + c * (Q - E)
    den1, den2, den3 = a * a * Q**4, ae * ae * E * E, -a * Q * (Q * Q + E * E) * ae
    dq, dq1, aqq = d * (E - Q), d * (Q - E), a * Q * Q
    u1 = (-b * E * ae * E, (dq - b * E) * ae * E)
    u2 = a * (b * (Q * Q + E * E) * E + dq1 * Q * Q) + b * c * (Q - E) * E * E
    t3s = (-(aqq * b * E), -(aqq * (b * E + dq1)))
    out, X = [], 1
    for n in range(1, n_max + 1):
        W, X = e * n, X * Q
        X2 = X * X
        den = (den1 << 4 * W) + X2 * X2 * den2 + (X2 * den3 << 2 * W)
        if den == 0:
            raise ResonanceError(f"C_{n} denominator vanishes")
        num = Q * X * (X2 * u1[n % 2] + (X * u2 << W) + (t3s[(n - 1) % 2] << 2 * W)) << W
        out.append((-num, -den) if den < 0 else (num, den))
    return out


def recurrence_C(n: int, V: CharVector, ctx: QContext):
    """Three-term recurrence coefficient C_n = delta_n - delta_{n+1}, closed form."""
    return _C_terms(V, ctx)(n)[0]


def recurrence_C_even(m: int, V: CharVector, ctx: QContext):
    """C_{2m}: the even-index specialization of the recurrence coefficient."""
    q = ctx.q
    a, b, c, d = V.as_tuple()
    ae = _a_eff(V, q)
    den = _checked_den(
        a * a * q**4, q ** (8 * m) * ae * ae, -a * (q**3 + q) * q ** (4 * m) * ae, 2 * m
    )
    num = (
        -q ** (2 * m + 1)
        * q_number(2 * m, ctx)
        * (q - 1)
        * (b * q ** (2 * m) * ae - a * q * q * (b + d * (q - 1)))
    )
    return num / den


def recurrence_C_odd(m: int, V: CharVector, ctx: QContext):
    """C_{2m+1}: the odd-index specialization of the recurrence coefficient."""
    q = ctx.q
    a, b, c, d = V.as_tuple()
    ae = _a_eff(V, q)
    den = _checked_den(
        a * a * q,
        q ** (8 * m + 1) * ae * ae,
        -a * (q * q + 1) * q ** (4 * m) * ae,
        2 * m + 1,
    )
    num = (
        -q ** (2 * m)
        * (q ** (2 * m) * ae - a * q)
        * (q ** (2 * m + 1) * (b + d * (q - 1)) - b)
    )
    return num / den


def _ladder_coeffs(n: int, V: CharVector, ctx: QContext):
    """Yield the coefficient lists of phi_0 .. phi_n, one step of
    monic_ladder's recurrence at a time."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    prev, cur = [1], [0, 1]
    yield prev
    if n >= 1:
        yield cur
    C_terms = _C_terms(V, ctx)
    for k in range(1, n):
        Ck = C_terms(k)[0]
        nxt = [0] * (k + 2)
        for i, ci in enumerate(cur):
            nxt[i + 1] = ci
        for i, pi in enumerate(prev):
            if pi != 0:
                nxt[i] = nxt[i] - Ck * pi
        yield nxt
        prev, cur = cur, nxt


def monic_ladder(n: int, V: CharVector, ctx: QContext) -> tuple:
    """All monic polynomials phi_0 .. phi_n built by the recurrence
    phi_{k+1} = x phi_k - C_k phi_{k-1}, phi_0 = 1, phi_1 = x."""
    return tuple(SymPolynomial(k, tuple(coeffs))
                 for k, coeffs in enumerate(_ladder_coeffs(n, V, ctx)))


def build_monic(n: int, V: CharVector, ctx: QContext) -> SymPolynomial:
    """The monic symmetric polynomial of degree n: the last rung of
    monic_ladder(n, V, ctx), the only one wrapped and validated."""
    for coeffs in _ladder_coeffs(n, V, ctx):
        pass
    return SymPolynomial(n, tuple(coeffs))


def _explicit_coeffs_by_degree(V: CharVector, ctx: QContext, n_max: int):
    """n -> the coefficients e_k = q^(k(k-1)) [M choose k]_{q^2} P_(M-k) of
    x^(n-2k) in eval_explicit, k = 0 .. M = n // 2, for 0 <= n <= n_max.
    P_t is the product over j < t of the ratios (a [2j+s+n-1] + c q^(2j+s+n-1))
    / (b [2j+e+2] + d q^(2j+e+2)), with s the parity of n and e = (-1)^(n+1).
    The n-independent values are formed once: the powers q^i and q-numbers
    [i], each ratio's numerator and denominator by its index, and the prefix
    (q^2; q^2)_i, whose quotients are the Gaussian binomials.  A vanishing
    denominator raises ZeroDenominatorError when a degree reads it.  The
    limit suite reads every degree of one closure; eval_explicit builds one
    with n_max = n for its single degree."""
    q = ctx.q
    a, b, c, d = V.as_tuple()
    half = n_max // 2
    pw = [q**i for i in range(max(2 * n_max, half * (half - 1)) + 1)]
    qn = [(p - 1) / (q - 1) for p in pw[:2 * n_max]]
    # both ratio indices are odd: 2j + s + n - 1 and 2j + e + 2
    nums = {i: a * qn[i] + c * pw[i] for i in range(1, 2 * n_max, 2)}
    dens = {}
    for i in range(1, n_max + 1, 2):
        t1, t2 = b * qn[i], d * pw[i]
        den = t1 + t2
        dens[i] = None if _resonant(den, t1, t2) else den
    b2 = q * q
    fac = [1 + b2 * 0]  # q_shifted_factorial's product, in its order
    for j in range(half):
        fac.append(fac[-1] * (1 - b2**j * b2))

    def coeffs(n: int) -> list:
        M = n // 2
        s = sigma_parity(n)
        e = 1 if s else -1
        prods = [1]
        for j in range(M):
            i_den = 2 * j + e + 2
            den = dens[i_den]
            if den is None:
                raise ZeroDenominatorError(
                    f"explicit-form denominator b[{i_den}] + d q^{i_den} vanishes"
                )
            prods.append(prods[-1] * nums[2 * j + s + n - 1] / den)
        return [pw[k * (k - 1)] * (fac[M] / (fac[k] * fac[M - k])) * prods[M - k]
                for k in range(M + 1)]

    return coeffs


def _explicit_sum(n: int, coeffs: list, x):
    # sum_k coeffs[k] x^(n-2k), the powers built upward from x^(n mod 2)
    t = x * x
    pws = [x ** sigma_parity(n)]
    for _ in coeffs[1:]:
        pws.append(pws[-1] * t)
    total = 0
    for ek, pk in zip(coeffs, reversed(pws)):
        total = total + ek * pk
    return total


def eval_explicit(n: int, V: CharVector, ctx: QContext, x):
    """The explicit (non-monic) polynomial: the double-product sum

        sum_k q^(k(k-1)) x^(n-2k) [n/2 choose k]_{q^2} prod_j (ratio_j).
    """
    return _explicit_sum(n, _explicit_coeffs_by_degree(V, ctx, n)(n), x)


def eval_explicit_monic(n: int, V: CharVector, ctx: QContext, x):
    """eval_explicit normalized by its own leading coefficient.

    Dividing by the leading product keeps this form usable when a or b is
    zero, where the 2phi1 normalization below is unavailable.
    """
    coeffs = _explicit_coeffs_by_degree(V, ctx, n)(n)
    if coeffs[0] == 0:
        raise ZeroDenominatorError("leading coefficient of the explicit form vanishes")
    return _explicit_sum(n, coeffs, x) / coeffs[0]


def hypergeometric_parameters(n: int, V: CharVector, ctx: QContext):
    """Parameters ((u1, u2), (l1,), base, z_coeff) of the terminating 2phi1
    representation; the series argument at a point x is z_coeff * x**2.

    Requires a != 0 and b != 0, and a float q^(s - n) in the float range.
    """
    if V.a == 0 or V.b == 0:
        raise ValueError("the 2phi1 form needs a != 0 and b != 0")
    q = ctx.q
    s = sigma_parity(n)
    try:
        u1 = q ** (s - n)
    except OverflowError:
        raise QSymPolyError(f"the 2phi1 parameter q^{s - n} overflows at q={q}") from None
    u2 = _a_eff(V, q) * q ** (n + s - 1) / V.a
    l1 = (V.b + V.d * (q - 1)) * q ** (2 * s + 1) / V.b
    return (u1, u2), (l1,), q * q, -V.a * q * q / V.b


def eval_hypergeometric(n: int, V: CharVector, ctx: QContext, x):
    """The polynomial as x**sigma_n times a terminating 2phi1 in x**2."""
    upper, lower, base, zc = hypergeometric_parameters(n, V, ctx)
    return x ** sigma_parity(n) * basic_hypergeometric(upper, lower, base, zc * x * x, n // 2)


def monic_factor(n: int, V: CharVector, ctx: QContext):
    """Prefactor turning eval_hypergeometric into the monic polynomial.

    Equal to q^(sigma_n - n) (-b/a)^(n//2) times a ratio of base-q^2
    shifted factorials.  The q^(-(n - sigma_n) sigma_n) factorial pair
    that formally appears in both numerator and denominator for even n is
    cancelled analytically here, removing a 0/0 in the raw display.
    """
    q = ctx.q
    M = n // 2
    upper, lower, base, _ = hypergeometric_parameters(n, V, ctx)
    u2 = upper[1]
    l1 = lower[0]
    num = q_shifted_factorial(base, M, ctx, base=base) * q_shifted_factorial(
        l1, M, ctx, base=base
    )
    den = q_shifted_factorial(q ** (-2 * M), M, ctx, base=base) * q_shifted_factorial(
        u2, M, ctx, base=base
    )
    if den == 0:
        raise ZeroDenominatorError("factorial ratio in the monic prefactor vanishes")
    # int a and b (the registry's ultraspherical vectors) must not divide to a float
    ratio = Fraction(-V.b, V.a) if isinstance(V.a, int) and isinstance(V.b, int) else -V.b / V.a
    return ratio**M * q ** (-2 * M) * num / den


def _polyval(coeffs, x):
    acc = 0
    for ck in reversed(coeffs):
        acc = acc * x + ck
    return acc


def _ode_terms_by_degree(n_max: int, V: CharVector, ctx: QContext, xs):
    """Yield, for n = 0 .. n_max, the list over the points x of xs of the
    three summands of the q-difference equation for phi_n of the ladder:
    x^2 (a x^2 + b) D_q D_{1/q} phi_n, x (c x^2 + d) D_q phi_n and
    (lambda_n x^2 - sigma_n d) phi_n.  The q-derivatives act on the
    coefficient sequence (x^k -> [k] x^(k-1)), not by divided differences,
    so the residual is free of subtractive grid cancellation.  [k]_q and
    [k]_{1/q} are formed once, and x^2, x^2 (a x^2 + b) and x (c x^2 + d)
    once per point; the operand order fixes every bit of a residual."""
    q = ctx.q
    qn = [(q**k - 1) / (q - 1) for k in range(n_max + 1)]
    qinv = [(q ** (-k) - 1) / (1 / q - 1) for k in range(n_max + 1)]
    points = []
    for x in xs:
        x2 = x * x
        points.append((x, x2, x2 * (V.a * x2 + V.b), x * (V.c * x2 + V.d)))
    for n, coeffs in enumerate(_ladder_coeffs(n_max, V, ctx)):
        lam = eigenvalue(n, V, ctx)
        dq1 = [qn[k] * coeffs[k] for k in range(1, n + 1)]
        ddq = [qn[k] * (qinv[k + 1] * coeffs[k + 1]) for k in range(1, n)]
        yield [(A * _polyval(ddq, x), B * _polyval(dq1, x),
                (lam * x2 - n % 2 * V.d) * _sym_horner(coeffs, x))
               for x, x2, A, B in points]


def ode_residual_terms(n: int, V: CharVector, ctx: QContext, x):
    """The three summands of the q-difference equation at x for phi_n
    built by the recurrence, whose sum is the residual."""
    for terms in _ode_terms_by_degree(n, V, ctx, (x,)):
        pass
    return terms[0]


class OrthogonalityClassification(Record):
    """Sign pattern of C_1 .. C_nmax and the induced orthogonality class
    ``kind``: "positive-definite", "quasi-definite", "weak" or "undefined",
    the last where the closed form of some C_n is resonant, so that the
    recurrence breaks there."""

    __slots__ = ("kind", "coefficients", "negative_indices", "zero_indices", "resonant_indices")


def classify_orthogonality(
    V: CharVector, ctx: QContext, n_max: int
) -> OrthogonalityClassification:
    """Scan C_n for n = 1 .. n_max and classify.

    undefined: the closed form of some C_n is resonant, and those indices
    are reported separately and do not enter the sign scan; otherwise
    positive-definite: all C_n > 0; quasi-definite: all nonzero but some
    negative; weak: some C_n vanishes, that is, the sum of its numerator's
    additive terms vanishes against the largest of them.  C_n decays like
    q^n, so no absolute threshold tells a zero.
    """
    coeffs = []
    neg, zero, reso = [], [], []
    C_terms = _C_terms(V, ctx)
    for n in range(1, n_max + 1):
        try:
            cn, (t1, t2, t3) = C_terms(n)
        except ResonanceError:
            reso.append(n)
            coeffs.append(None)
            continue
        coeffs.append(cn)
        if _resonant(t1 + t2 + t3, t1, t2, t3):
            zero.append(n)
        elif cn < 0:
            neg.append(n)
    if reso:
        kind = "undefined"
    elif zero:
        kind = "weak"
    elif neg:
        kind = "quasi-definite"
    else:
        kind = "positive-definite"
    return OrthogonalityClassification(
        kind, tuple(coeffs), tuple(neg), tuple(zero), tuple(reso)
    )
