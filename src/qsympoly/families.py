"""Named parameterizations of the symmetric family.

Four named families are provided: the generalized q-ultraspherical
polynomials (parameters alpha, beta), the fifth- and sixth-kind
q-Chebyshev polynomials (ultraspherical at alpha = 1 and
beta = [3]/[2] - 2 resp. [5]/[2] - 2), and the generalized q-Hermite
polynomials (parameter p), whose p = 0 case rescales the discrete
q-Hermite I polynomials.  Each family is one FamilyDescriptor record,
and FAMILIES maps the command-line names to the factories.

Alongside the characteristic vectors this module carries the closed-form
norm squares exactly as tabulated, the Favard product of recurrence
coefficients (the ground truth for relative norms), Gram matrices by
Jackson integration, and the three-way norm comparison used by the
verification suites.  Where a tabulated norm expression disagrees with
the Favard product beyond tolerance, the comparison flags the discrepancy
and reports both values; it never silently corrects the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from .errors import AdmissibilityError, ZeroDenominatorError
from .jackson import JacksonConfig
from .qcore import (
    QContext,
    exp_,
    q_number,
    q_shifted_factorial,
    q_shifted_factorial_inf,
    sqrt_,
)
from .sympoly import CharVector, recurrence_C
from .weights import WeightSpec, pearson_ratio, weight_grid_report, weight_star

__all__ = [
    "FamilyDescriptor",
    "FAMILIES",
    "make_ultraspherical",
    "make_chebyshev5",
    "make_chebyshev6",
    "make_hermite",
    "make_custom",
    "norm_square_ultraspherical",
    "norm_square_hermite",
    "favard_norm",
    "ReductionReport",
    "hermite_p0_reduction_check",
    "orthogonality_matrix",
    "NormTriple",
    "norm_triple_report",
]


@dataclass(frozen=True, eq=False)
class FamilyDescriptor:
    """A family instance and everything that varies by family.

    ``name`` is a label only.  The ``make_*`` factory fills in the rest:
    ``rebuild`` maps a QContext to the same family at that base (None for
    a custom vector); ``closed_norm`` maps n to the tabulated norm square
    d^2_n; ``limit_V`` is the q -> 1 characteristic vector;
    ``limit_weight`` maps x to the q -> 1 weight; ``violation`` says why
    the parameters are not admissible.  None marks what a family lacks.
    """

    name: str
    params: dict
    V: CharVector
    support: float | None
    ctx: QContext
    limit_V: CharVector
    rebuild: Callable | None = None
    closed_norm: Callable | None = None
    limit_weight: Callable | None = None
    violation: str | None = None

    def weight_spec(self) -> WeightSpec:
        if self.support is None:
            raise ValueError(f"family {self.name!r} has no known support endpoint")
        return WeightSpec(self.V, self.support, self.ctx)

    def norm_square(self, n: int):
        """Tabulated closed-form norm square, or None when the family has none."""
        return None if self.closed_norm is None else self.closed_norm(n)


def _ultraspherical(name, alpha, beta, beta1, ctx, rebuild) -> FamilyDescriptor:
    # beta1 is the q -> 1 limit of beta, which differs from beta where beta
    # itself depends on q (the chebyshev cases)
    q = ctx.q
    theta = alpha + beta + 1
    V = CharVector(-1, 1, -q * (q + 1) * theta, alpha * q * (q + 1))
    return FamilyDescriptor(
        name, {"alpha": alpha, "beta": beta}, V, 1.0, ctx,
        limit_V=CharVector(-1, 1, -2 * (alpha + beta1 + 1), 2 * alpha),
        rebuild=rebuild,
        closed_norm=lambda n: norm_square_ultraspherical(n, alpha, beta, ctx),
        limit_weight=lambda x: _ultraspherical_limit_weight(alpha, beta1, x),
    )


def make_ultraspherical(alpha, beta, ctx: QContext) -> FamilyDescriptor:
    """Generalized q-ultraspherical family on [-1, 1]:
    V = (-1, 1, -q(q+1)(alpha+beta+1), alpha q (q+1))."""
    return _ultraspherical(
        "ultraspherical", alpha, beta, beta, ctx, partial(make_ultraspherical, alpha, beta)
    )


def make_chebyshev5(ctx: QContext) -> FamilyDescriptor:
    """Fifth-kind q-Chebyshev: ultraspherical at alpha = 1, beta = [3]/[2] - 2."""
    beta = q_number(3, ctx) / q_number(2, ctx) - 2
    return _ultraspherical("chebyshev5", 1, beta, -0.5, ctx, make_chebyshev5)


def make_chebyshev6(ctx: QContext) -> FamilyDescriptor:
    """Sixth-kind q-Chebyshev: ultraspherical at alpha = 1, beta = [5]/[2] - 2."""
    beta = q_number(5, ctx) / q_number(2, ctx) - 2
    return _ultraspherical("chebyshev6", 1, beta, 0.5, ctx, make_chebyshev6)


def make_hermite(p, ctx: QContext) -> FamilyDescriptor:
    """Generalized q-Hermite family on [-1/sqrt(1-q^2), 1/sqrt(1-q^2)]:
    V = (1-q^2, -1, 1+q, p(1+q)), admissible for p (1-q^2) < 1."""
    q = ctx.q
    # a is computed as (1+q)(1-q) so that a + c(q-1) cancels to exactly zero
    a = (1 + q) * (1 - q)
    V = CharVector(a, -1, 1 + q, p * (1 + q))
    violation = None
    if p * (1 - q * q) >= 1:
        violation = f"hermite admissibility p (1-q^2) < 1 violated (p={p}, q={q})"
    return FamilyDescriptor(
        "hermite", {"p": p}, V, 1 / sqrt_(a), ctx,
        limit_V=CharVector(0, -1, 2, 2 * p),
        rebuild=partial(make_hermite, p),
        closed_norm=lambda n: norm_square_hermite(n, p, ctx),
        limit_weight=lambda x: _hermite_limit_weight(p, x),
        violation=violation,
    )


def make_custom(a, b, c, d, ctx: QContext) -> FamilyDescriptor:
    """A family given directly by its characteristic vector.

    The support endpoint is the positive root of a x^2 + b = 0 when one
    exists; weight-based operations are unavailable otherwise.  The
    vector is its own q -> 1 limit, and there is no closed-form norm or
    limit weight.
    """
    V = CharVector(a, b, c, d)
    support = None
    if a != 0 and -b / a > 0:
        support = sqrt_(-b / a)
    return FamilyDescriptor("custom", {}, V, support, ctx, limit_V=V)


# CLI family name -> (factory, names of the parameters it takes before ctx)
FAMILIES = {
    "ultraspherical": (make_ultraspherical, ("alpha", "beta")),
    "chebyshev5": (make_chebyshev5, ()),
    "chebyshev6": (make_chebyshev6, ()),
    "hermite": (make_hermite, ("p",)),
}


def _ultraspherical_limit_weight(alpha, beta, x):
    """x^(2 alpha) (1 - x^2)^beta on [-1, 1]."""
    if abs(x) > 1:
        raise ValueError("x outside the support [-1, 1]")
    if x == 0:
        if alpha < 0:
            raise ValueError("weight singular at x = 0 for alpha < 0")
        return 1.0 if alpha == 0 else 0.0
    x2 = x * x
    if x2 == 1 and beta < 0:
        raise ValueError("weight singular at |x| = 1 for beta < 0")
    return x2**alpha * (1 - x2) ** beta


def _hermite_limit_weight(p, x):
    """x^(-2p) exp(-x^2) on the real line."""
    if x == 0:
        if p == 0:
            return 1.0
        return float("inf") if p > 0 else 0.0
    x2 = x * x
    return x2 ** (-p) * exp_(-x2)


def _poch(x, base, k, ctx):
    return q_shifted_factorial(x, k, ctx, base=base)


def _nonzero(v, what: str):
    if v == 0:
        raise ZeroDenominatorError(f"{what} vanishes in a closed-form norm")
    return v


def norm_square_ultraspherical(n: int, alpha, beta, ctx: QContext):
    """Tabulated closed-form norm square d^2_n of the monic q-ultraspherical
    polynomials, evaluated exactly as displayed (bases q^2 and q^4).

    The display agrees with the Favard product at generic parameters but
    has a removable singularity where 1 - q(alpha+beta+1) + alpha q^3 = 0
    (equivalently T = q^2 U, which zeroes a numerator factor at the same
    time; alpha=0.4, beta=0.7, q=0.5 sits exactly on it).  Evaluation is
    verbatim, so that locus raises ZeroDenominatorError rather than
    resolving the 0/0; favard_norm is the arbiter there.
    """
    q = ctx.q
    m = n // 2
    q2 = q * q
    q4 = q2 * q2
    T = (alpha + beta + 1) * q * (q2 - 1) + 1
    U = alpha * q * (q2 - 1) + 1
    s = alpha + beta
    pref_num = (q - 1) * (q * (q + 1) * s - 1) * (q * (q + 1) * (s + 1) - 1) * U ** (m + 1)
    pref_den = (q + 1) * (-q * (s + 1) + alpha * q**3 + 1)
    _nonzero(pref_den, "prefactor denominator")
    if n % 2 == 0:
        pref = pref_num * q ** (m * (2 * m - 1) - 2) / pref_den
        n1 = _poch(q2, q2, m, ctx) * _poch(q * U, q2, m, ctx)
        d1 = _poch(T / q**3, q4, m + 1, ctx) * _poch(T / q, q4, m, ctx)
        n3 = _poch(T / q, q2, m, ctx) * _poch(T / (q2 * U), q2, m + 1, ctx)
        d3 = _poch(T / q, q4, m + 1, ctx) * _poch(q * T, q4, m, ctx)
    else:
        pref = pref_num * q ** (m * (2 * m + 1) - 2) / pref_den
        n1 = _poch(q2, q2, m, ctx) * _poch(q * U, q2, m + 1, ctx)
        d1 = _poch(q * T, q4, m + 1, ctx)
        n3 = _poch(T / q, q2, m + 1, ctx) * _poch(T / (q2 * U), q2, m + 1, ctx)
        d3 = _poch(T / q**3, q4, m + 1, ctx) * _poch(T / q, q4, m + 1, ctx) ** 2
    _nonzero(d1, "shifted-factorial denominator")
    _nonzero(d3, "shifted-factorial denominator")
    return (n1 / d1) * pref * (n3 / d3)


def norm_square_hermite(n: int, p, ctx: QContext):
    """Tabulated closed-form norm square d^2_n of the monic generalized
    q-Hermite polynomials, evaluated exactly as displayed.

    Known caveat: the odd-index display carries (q^2 - 1)^(2m+1) in its
    denominator and therefore comes out negative; favard_norm is the
    ground truth and the comparison report shows both values.
    """
    q = ctx.q
    m = n // 2
    q2 = q * q
    A = -p * q2 + p + 1
    B = -p * q**3 + p * q + q
    common = 0.5 * q_shifted_factorial(-1, m + 1, ctx) * q_shifted_factorial(q, m, ctx)
    if n % 2 == 0:
        return common * q ** (m * (2 * m - 1)) * A**m / (q2 - 1) ** (2 * m) * _poch(
            B, q2, m, ctx
        )
    return common * q ** (m * (2 * m + 1)) * A**m / (q2 - 1) ** (2 * m + 1) * _poch(
        B, q2, m + 1, ctx
    )


def favard_norm(n: int, V: CharVector, ctx: QContext):
    """Relative norm square of the monic polynomial of degree n as the
    Favard product C_1 C_2 ... C_n (equals the Jackson-integral ratio of
    phi_n^2 against the total weight mass)."""
    prod = 1
    for i in range(1, n + 1):
        prod = prod * recurrence_C(i, V, ctx)
    return prod


@dataclass(frozen=True)
class ReductionReport:
    """Outcome of the p = 0 reduction to discrete q-Hermite I."""

    ok_recurrence: bool
    max_recurrence_deviation: float
    max_weight_product_deviation: float


def hermite_p0_reduction_check(
    n_max: int, ctx: QContext, n_points: int = 20, tol: float = 1e-13
) -> ReductionReport:
    """At p = 0 the recurrence collapses to C_n = q^(n-1)(1-q^n)/(1-q^2)
    (the rescaled discrete q-Hermite I recurrence); verified here for
    n = 1 .. n_max.

    The weight is compared on the grid alpha q^j with the product form
    (q^2 (1-q^2) x^2; q^2)_inf, the discrete q-Hermite I weight
    (qy, -qy; q)_inf at y = sqrt(1-q^2) x, which solves the family's
    Pearson relation; the largest relative deviation is reported.
    """
    q = ctx.q
    fam = make_hermite(0.0, ctx)
    dev_c = 0.0
    for n in range(1, n_max + 1):
        ref = q ** (n - 1) * (1 - q**n) / (1 - q * q)
        val = recurrence_C(n, fam.V, ctx)
        dev_c = max(dev_c, abs(val - ref) / abs(ref))
    dev_prod = 0.0
    for j in range(1, n_points + 1):
        x = fam.support * q**j
        w = weight_star(fam.V, ctx, x)
        u = (1 - q * q) * x * x
        prod = q_shifted_factorial_inf(q * q * u, ctx, base=q * q)
        dev_prod = max(dev_prod, abs(w - prod) / abs(prod))
    return ReductionReport(
        ok_recurrence=dev_c <= tol,
        max_recurrence_deviation=dev_c,
        max_weight_product_deviation=dev_prod,
    )


def orthogonality_matrix(
    fam: FamilyDescriptor,
    n_max: int,
    cfg: JacksonConfig,
    internal_dps: int | None = 40,
) -> tuple:
    """Gram matrix G[n][m] = integral of W* phi_n phi_m over [-alpha, alpha]
    by symmetric Jackson integration, for n, m = 0 .. n_max, as a tuple
    of row tuples.

    Opposite-parity entries are exactly zero (odd integrand).  Equal-parity
    entries are summed in ascending grid order from two tables over the
    grid alpha q^j.  The weight table q^j W*(alpha q^j) takes one
    weight_star evaluation at alpha and then steps along the grid by the
    Pearson relation W*(qx) = q^2 pearson_ratio(x) W*(x), which holds
    exactly on this orbit.  The polynomial values come from the
    three-term recurrence phi_{k+1} = x phi_k - C_k phi_{k-1} at each
    grid point.  Each entry depends only on n and m, not on n_max.

    The true Gram matrix of the exact polynomials is diagonal, but seeing
    that to 1e-10 relative needs more headroom than double precision
    offers: ulp-level rounding of the recurrence coefficients is
    amplified by the norm ratio d^2_0 / d^2_n, around 1e10 at n = 10.
    Float inputs are therefore promoted exactly to mpmath at
    ``internal_dps`` digits for the assembly and the entries demoted back
    to float.  Pass internal_dps=None to integrate in the ambient
    arithmetic, or mpf inputs to use the current mpmath precision
    throughout.
    """
    if fam.violation is not None:
        raise AdmissibilityError(fam.violation)
    if fam.support is None:
        raise ValueError("orthogonality needs a family with a support endpoint")
    grid = weight_grid_report(fam.weight_spec(), cfg.n_terms)
    if not (grid.positive and grid.even_exact):
        raise AdmissibilityError(
            f"weight is not positive/even on the grid (first bad index "
            f"{grid.first_bad_index})"
        )

    if internal_dps is not None and isinstance(fam.ctx.q, (int, float)):
        import mpmath

        with mpmath.workdps(internal_dps):
            G = _assemble_gram(fam, n_max, cfg, mpmath.mpf, internal_dps)
        return tuple(tuple(float(v) for v in row) for row in G)
    return tuple(map(tuple, _assemble_gram(fam, n_max, cfg, None, None)))


def _assemble_gram(fam, n_max, cfg, to_mpf, dps):
    ctx = fam.ctx
    if to_mpf is not None:
        q = to_mpf(ctx.q)
        ictx = QContext(q, eps_term=10.0 ** (-(dps + 6)), max_terms=4 * ctx.max_terms)
        V = CharVector(*(to_mpf(v) for v in fam.V.as_tuple()))
        # the endpoint must be the root of a x^2 + b at *working* precision,
        # otherwise the boundary term A(alpha) W(alpha) stops vanishing and
        # re-enters the off-diagonal entries at the double-rounding level
        if V.a != 0 and -V.b / V.a > 0:
            alpha = sqrt_(-V.b / V.a)
        else:
            alpha = to_mpf(fam.support)
    else:
        q, ictx, V, alpha = ctx.q, ctx, fam.V, fam.support
    Cs = [recurrence_C(k, V, ictx) for k in range(1, n_max)]
    q3 = q**3
    size = n_max + 1
    G = [[0] * size for _ in range(size)]
    # t = q^j W*(alpha q^j), stepped along the grid by the Pearson relation
    # W*(qx) = q^2 pearson_ratio(x) W*(x); its pole a q^2 x^2 + b =
    # b (1 - q^(2j+2)) never vanishes on this orbit
    t = weight_star(V, ictx, alpha)
    for j in range(cfg.n_terms + 1):
        x = alpha * q**j
        pv = [1, x]
        for Ck in Cs:
            pv.append(x * pv[-1] - Ck * pv[-2])
        for n in range(size):
            u = t * pv[n]
            row = G[n]
            for m in range(n, size, 2):
                row[m] = row[m] + u * pv[m]
        t = t * q3 * pearson_ratio(V, ictx, x)
    scale = 2 * alpha * (1 - q)
    for n in range(size):
        for m in range(n, size, 2):
            G[n][m] = G[m][n] = scale * G[n][m]
    return G


@dataclass(frozen=True)
class NormTriple:
    """Three-way norm comparison at one degree.

    ``closed_form`` is None when the tabulated expression could not be
    evaluated (the note says why).  ``discrepancy_flagged`` marks the case
    where Favard and quadrature agree with each other but the tabulated
    form deviates beyond the flag threshold; per policy that is reported,
    not failed.
    """

    n: int
    closed_form: float | None
    closed_form_note: str | None
    favard: float
    quadrature: float
    favard_vs_quadrature: float
    closed_vs_favard: float | None
    discrepancy_flagged: bool
    ok: bool


def norm_triple_report(
    fam: FamilyDescriptor,
    n_max: int,
    cfg: JacksonConfig,
    pair_tol: float = 1e-8,
    flag_tol: float = 1e-6,
    internal_dps: int | None = 40,
    gram: tuple | None = None,
) -> tuple:
    """Compare closed-form norms, Favard products and quadrature ratios
    for n = 0 .. n_max.

    ``gram`` is an orthogonality_matrix of this family and grid of size
    at least n_max + 1, whose leading block is used; without it the
    matrix is assembled here.
    """
    G = gram
    if G is None:
        G = orthogonality_matrix(fam, n_max, cfg, internal_dps=internal_dps)
    elif len(G) <= n_max:
        raise ValueError(f"Gram matrix of size {len(G)} has no entry at n = {n_max}")
    mass = G[0][0]
    out = []
    for n in range(n_max + 1):
        fav = favard_norm(n, fam.V, fam.ctx)
        quad = G[n][n] / mass
        pair_rel = abs(fav - quad) / max(abs(fav), abs(quad))
        closed = None
        note = None
        try:
            closed = fam.norm_square(n)
        except ZeroDenominatorError as exc:
            note = f"closed form not evaluable: {exc}"
        closed_rel = None
        flagged = False
        if closed is not None:
            closed_rel = abs(closed - fav) / max(abs(closed), abs(fav))
            if closed_rel > flag_tol:
                flagged = True
                note = (
                    f"closed form deviates from Favard product by {closed_rel:.3e}; "
                    "both values reported"
                )
        elif note is None:
            note = "no closed form for this family"
        else:
            flagged = True
        ok = pair_rel <= pair_tol and (
            flagged or closed is None or closed_rel <= pair_tol
        )
        out.append(NormTriple(n, closed, note, fav, quad, pair_rel, closed_rel, flagged, ok))
    return tuple(out)
