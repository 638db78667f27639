import math
import time
from functools import partial

import mpmath
import pytest

import qsympoly as qp
from conftest import rel, rng

CTX = qp.QContext(0.5)
Q = 0.5
N_TERMS = 256  # the CLI's default grid depth


_ORACLE_GRIDS = {}


def _oracle_grid(make, q, n_terms):
    """The family of ``make`` at 40 digits, with its Jackson grid and direct
    weight_star table at 60 digits for the same (exactly promoted) vector,
    j = 0 .. n_terms; one table per (make, q), extended as deeper grids are
    asked for, since its entries do not depend on n_terms or n_max."""
    if (make, q) not in _ORACLE_GRIDS:
        with mpmath.workdps(40):
            _ORACLE_GRIDS[make, q] = make(qp.QContext(mpmath.mpf(q))), [], []
    fam, xs, ws = _ORACLE_GRIDS[make, q]
    with mpmath.workdps(60):
        ctx = qp.QContext(fam.ctx.q)
        alpha, qm = qp.make_custom(*fam.V.as_tuple(), ctx).support, ctx.q
        for j in range(len(xs), n_terms + 1):
            xs.append(alpha * qm**j)
            ws.append(qm**j * qp.weight_star(fam.V, ctx, xs[-1]))
    return fam, xs[:n_terms + 1], ws[:n_terms + 1]


def _oracle_hermite(p: str):
    """A maker of hermite(p) with p read at the working precision."""
    return lambda ctx: qp.make_hermite(mpmath.mpf(p), ctx)


# one maker, so that its grids at q = 0.9 share one table
_ORACLE_HERMITE_03 = _oracle_hermite("0.3")


class TestMakers:
    def test_ultraspherical_vector(self):
        fam = qp.make_ultraspherical(0.4, 0.7, CTX)
        assert fam.V.a == -1 and fam.V.b == 1
        assert rel(fam.V.c, -Q * (1 + Q) * 2.1) < 1e-15
        assert rel(fam.V.d, 0.4 * Q * (1 + Q)) < 1e-15
        assert fam.support == 1.0

    def test_ultraspherical_induced_equation(self):
        # B(x) = x(c x^2 + d) must equal (q+1) q x (alpha - x^2 (alpha+beta+1))
        fam = qp.make_ultraspherical(0.4, 0.7, CTX)
        r = rng(11)
        for _ in range(5):
            x = r.uniform(-1, 1)
            lhs = x * (fam.V.c * x * x + fam.V.d)
            rhs = (Q + 1) * Q * x * (0.4 - x * x * 2.1)
            assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(rhs))

    def test_chebyshev5_parameters(self):
        fam = qp.make_chebyshev5(CTX)
        assert rel(fam.V.c, -Q * (Q * Q + Q + 1)) < 1e-14
        assert rel(fam.V.d, Q * (Q + 1)) < 1e-14

    def test_chebyshev6_parameters(self):
        fam = qp.make_chebyshev6(CTX)
        q5 = 1 + Q + Q**2 + Q**3 + Q**4
        assert rel(fam.V.c, -Q * q5) < 1e-14
        assert rel(fam.V.d, Q * (Q + 1)) < 1e-14

    def test_hermite_vector(self):
        fam = qp.make_hermite(0.3, CTX)
        assert rel(fam.V.a, 1 - Q * Q) < 1e-15
        assert fam.V.b == -1
        assert fam.V.c == 1 + Q
        assert rel(fam.V.d, 0.3 * (1 + Q)) < 1e-15
        assert rel(fam.support, 1 / (1 - Q * Q) ** 0.5) < 1e-15

    def test_hermite_induced_equation(self):
        # B(x) = (q+1) x (x^2 + p); the x^2 eigen-coefficient is (1+q) q [-n]
        fam = qp.make_hermite(0.3, CTX)
        r = rng(12)
        for _ in range(5):
            x = r.uniform(-1, 1)
            lhs = x * (fam.V.c * x * x + fam.V.d)
            rhs = (Q + 1) * x * (x * x + 0.3)
            assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(rhs))
        for n in range(0, 9):
            lam = qp.eigenvalue(n, fam.V, CTX)
            q_minus_n = (Q**-n - 1) / (Q - 1)
            assert rel(lam, (1 + Q) * Q * q_minus_n) < 1e-13

    def test_custom_support(self):
        fam = qp.make_custom(-2.0, 0.5, 1.0, 0.0, CTX)
        assert rel(fam.support, 0.5) < 1e-15  # sqrt(-b/a) = sqrt(0.25)
        assert qp.make_custom(1.0, 0.5, 1.0, 0.0, CTX).support is None


class TestNormSquares:
    def test_hermite_even_matches_favard(self):
        for p in (0.0, 0.3):
            fam = qp.make_hermite(p, CTX)
            for n in (0, 2, 4, 6, 8):
                closed = qp.norm_square_hermite(n, p, CTX)
                fav = qp.favard_norm(n, fam.V, CTX)
                assert rel(closed, fav) < 1e-10

    def test_hermite_odd_sign_defect(self):
        # tabulated odd-index form carries (q^2-1)^(2m+1) and comes out negative
        for p in (0.0, 0.3):
            fam = qp.make_hermite(p, CTX)
            for n in (1, 3, 5, 7):
                closed = qp.norm_square_hermite(n, p, CTX)
                fav = qp.favard_norm(n, fam.V, CTX)
                assert closed < 0 < fav
                assert rel(-closed, fav) < 1e-10

    def test_ultraspherical_matches_favard(self):
        for al, be, q in ((0.3, 0.45, 0.5), (0.4, 0.7, 0.3), (1.2, -0.3, 0.5)):
            ctx = qp.QContext(q)
            fam = qp.make_ultraspherical(al, be, ctx)
            for n in range(0, 9):
                closed = qp.norm_square_ultraspherical(n, al, be, ctx)
                fav = qp.favard_norm(n, fam.V, ctx)
                assert rel(closed, fav) < 1e-9

    def test_chebyshev_match_favard(self):
        for mk in (qp.make_chebyshev5, qp.make_chebyshev6):
            fam = mk(CTX)
            for n in range(0, 9):
                assert rel(fam.closed_norm(n), qp.favard_norm(n, fam.V, CTX)) < 1e-9

    def test_ultraspherical_removable_singularity(self):
        # 1 - q(alpha+beta+1) + alpha q^3 = 0 exactly at (0.4, 0.7, 0.5); the
        # 0/0 is not resolved, it is reported
        with pytest.raises(qp.ZeroDenominatorError):
            qp.norm_square_ultraspherical(2, 0.4, 0.7, CTX)

    def test_degree_zero_norm_is_one(self):
        assert rel(qp.norm_square_ultraspherical(0, 0.3, 0.45, CTX), 1.0) < 1e-12
        assert qp.norm_square_hermite(0, 0.3, CTX) == 1.0

    def test_favard_basics(self):
        fam = qp.make_hermite(0.0, CTX)
        assert qp.favard_norm(0, fam.V, CTX) == 1
        assert rel(qp.favard_norm(1, fam.V, CTX), 2.0 / 3.0) < 1e-15
        prod = 1.0
        for i in range(1, 5):
            prod *= qp.recurrence_C(i, fam.V, CTX)
        assert rel(qp.favard_norm(4, fam.V, CTX), prod) < 1e-15


class TestOrthogonalityMatrix:
    def test_hermite_off_diagonal(self):
        fam = qp.make_hermite(0.0, CTX)
        G = qp.orthogonality_matrix(fam, 10, N_TERMS)
        for i in range(11):
            for j in range(i + 1, 11):
                if (i + j) % 2:
                    assert G[i][j] == 0.0
                else:
                    assert abs(G[i][j]) <= 1e-10 * (G[i][i] * G[j][j]) ** 0.5

    def test_diagonal_matches_favard(self):
        fam = qp.make_hermite(0.3, CTX)
        G = qp.orthogonality_matrix(fam, 10, N_TERMS)
        for n in range(1, 11):
            fav = qp.favard_norm(n, fam.V, CTX)
            assert rel(G[n][n] / G[0][0], fav) < 1e-9

    def test_matches_q_integral_symmetric(self):
        # the promoted assembly equals literal float Jackson integrals, on the
        # scale of the diagonal: the true off-diagonal entries are rounding noise
        fam = qp.make_ultraspherical(0.4, 0.7, CTX)
        G = qp.orthogonality_matrix(fam, 4, N_TERMS)
        polys = [qp.build_monic(n, fam.V, CTX) for n in range(5)]
        for n in range(5):
            for m in range(n, 5, 2):
                direct = qp.q_integral_symmetric(
                    lambda t: qp.weight_star(fam.V, CTX, t) * polys[n](t) * polys[m](t), 1.0,
                    qp.JacksonConfig(CTX, n_terms=N_TERMS)
                ).value
                assert abs(G[n][m] - direct) <= 1e-14 * (G[n][n] * G[m][m]) ** 0.5

    ORACLE_CASES = [
        (lambda ctx: qp.make_ultraspherical(mpmath.mpf("0.4"), mpmath.mpf("0.7"), ctx), "0.5", 256),
        (lambda ctx: qp.make_hermite(mpmath.mpf("0.3"), ctx), "0.3", 256),
        # power base 1 + p (1 - q^2) = 0.0025: the weight table spans about
        # 210 decades, so its smallest entries round to 0 in the fixed point
        (lambda ctx: qp.make_hermite(mpmath.mpf("-5.25"), ctx), "0.9", 80),
        # no named family: power base 0.9 and gamma = 1 + c(q-1)/a = 0.25
        (lambda ctx: qp.make_custom(-1, 1, mpmath.mpf("-1.5"), mpmath.mpf("0.2"), ctx),
         "0.5", 256),
    ]
    ORACLE_IDS = ["ultraspherical", "hermite", "hermite-wide-table", "custom"]
    # the stepped head of hermite(0.3) at q = 0.9 has J' = 35 points, as
    # 0.81^35 = 6.3e-4 <= 2^-8 (1 - 0.81) = 7.4e-4 < 0.81^34 (gamma = 0);
    # the grid ends before it, on either side of its end, and far past it
    HEAD_DEPTHS = [1, 8, 34, 35, 36, 5000]

    @pytest.mark.parametrize(
        "make,q,n_terms,n_max",
        [case + (6,) for case in ORACLE_CASES]
        # n_max = 10 has the largest cancellation, psi_10 against d^2_10 / d^2_0
        + [case + (10,) for case in ORACLE_CASES]
        + [(_ORACLE_HERMITE_03, "0.9", N, 10) for N in [32] + HEAD_DEPTHS]
        # gamma / beta = -2.22: the tail's series alternates
        + [(lambda ctx: qp.make_custom(-1, 1, -6, mpmath.mpf("0.2"), ctx), "0.5", 256, 10),
           # q beta = 1 - 1.06e-7: the tail's geometric sums sit next to 1
           (_oracle_hermite("0.5847947"), "0.9", 100, 10)],
        ids=ORACLE_IDS + [i + "-n_max-10" for i in ORACLE_IDS] + ["hermite-q0.9-n_max-10"]
        + [f"hermite-q0.9-N{N}" for N in HEAD_DEPTHS] + ["custom-alternating-tail",
                                                         "hermite-q-beta-near-1"],
    )
    def test_mp40_oracle(self, make, q, n_terms, n_max):
        # the Gram at 40 digits against a literal Jackson sum over a direct
        # weight_star table and Horner values of the monic polynomials, at 60
        # digits: at 40 the Horner values themselves err by up to 1.3e-29 at
        # n_max = 10
        fam, xs, ws = _oracle_grid(make, q, n_terms)
        with mpmath.workdps(40):
            G = qp.orthogonality_matrix(fam, n_max, n_terms)
        with mpmath.workdps(60):
            ctx = qp.QContext(fam.ctx.q)
            polys = [qp.build_monic(n, fam.V, ctx) for n in range(n_max + 1)]
            pv = [[p(x) for x in xs] for p in polys]

            def oracle(n, m):
                return 2 * xs[0] * (1 - ctx.q) * mpmath.fsum(
                    w * a * b for w, a, b in zip(ws, pv[n], pv[m]))

            diagonal = [oracle(n, n) for n in range(n_max + 1)]
            for n in range(n_max + 1):
                for m in range(n, n_max + 1, 2):
                    scale = mpmath.sqrt(diagonal[n] * diagonal[m])
                    exact = diagonal[n] if m == n else oracle(n, m)
                    assert abs(G[n][m] - exact) <= mpmath.mpf("1e-33") * scale

    def test_head_length(self, monkeypatch):
        # the head is stepped for j < J' = 35, and the tail j = J' .. N is
        # summed in closed form: N = 34 leaves it empty, N = 35 one point long
        from qsympoly import families

        lengths = []
        real = families._geometric_sum
        monkeypatch.setattr(families, "_geometric_sum",
                            lambda r, n, P: lengths.append(n) or real(r, n, P))
        ctx = qp.QContext(0.9)
        for N in (34, 35, 700):
            lengths.clear()
            qp.orthogonality_matrix(qp.make_hermite(0.3, ctx), 10, N)
            assert set(lengths) == {N + 1 - 35}

    @pytest.mark.parametrize("r", [0, 1, 2**40, 2**64 - 2**20, 2**64, 2**64 + 2**30, 3 * 2**63])
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 700, 10**6])
    def test_geometric_sum(self, r, n):
        # sum_(i<n) (r 2^-64)^i 2^64 on both sides of 1, against the closed
        # form at 4000 bits: each squaring doubles the relative error of r^k,
        # so up to about n roundings of 2^-64 reach the sum, which the Gram's
        # tail precision budgets with the bits of n
        from qsympoly.families import _geometric_sum

        P = 64
        with mpmath.workprec(4000):
            x = mpmath.ldexp(r, -P)
            exact = n if x == 1 else (1 - x**n) / (1 - x)
            err = abs(mpmath.ldexp(_geometric_sum(r, n, P), -P) - exact)
            assert err <= 4 * (n + 1) * max(exact, 1) * mpmath.ldexp(1, -P)

    def test_depth_at_least_one(self):
        fam = qp.make_hermite(0.3, CTX)
        with pytest.raises(ValueError, match="n_terms must be at least 1"):
            qp.orthogonality_matrix(fam, 4, 0)

    def test_inadmissible_hermite(self):
        fam = qp.make_hermite(2.0, CTX)  # p (1 - q^2) = 1.5
        with pytest.raises(qp.AdmissibilityError):
            qp.orthogonality_matrix(fam, 4, N_TERMS)

    def test_weight_not_positive_on_grid(self):
        # beta = -1.5 makes W* negative at the endpoint alpha = 1 (j = 0)
        fam = qp.make_ultraspherical(0.4, -1.5, CTX)
        bad = qp.weight_grid_report(fam.V, fam.support, CTX, N_TERMS).first_bad_index
        assert bad == 0
        with pytest.raises(qp.AdmissibilityError, match=f"first bad index {bad}\\)"):
            qp.orthogonality_matrix(fam, 4, N_TERMS)

    def test_weight_sign_change_mid_grid(self):
        # power base 0.125: the step ratio q (0.125 - q^(2j)) / (1 - q^(2j+2))
        # is negative at j = 0 and 1, so of the whole table only t_1 is negative
        fam = qp.make_custom(-1, 1, 0, 1.75, CTX)
        assert qp.weight_grid_report(fam.V, fam.support, CTX, N_TERMS).first_bad_index == 1
        with pytest.raises(qp.AdmissibilityError, match="first bad index 1\\)"):
            qp.orthogonality_matrix(fam, 4, N_TERMS)

    def test_invalid_power_base(self):
        fam = qp.make_custom(-1, 1, 0, 2.5, CTX)  # power base 1 + d (q-1) / b = -0.25
        with pytest.raises(qp.InvalidBaseError):
            qp.orthogonality_matrix(fam, 4, N_TERMS)

    def test_vanishing_norm_ratio(self):
        # c / a = d / b gives gamma = beta: the weight's denominator product
        # vanishes at alpha, and C_2 = 0 exactly, which must not escape as a
        # bare ZeroDivisionError from the guard-bit estimate
        fam = qp.make_custom(-1, 1, -1.5, 1.5, CTX)
        assert qp.recurrence_C(2, fam.V, CTX) == 0
        with pytest.raises(qp.AdmissibilityError, match="C_1 ... C_2 vanishes"):
            qp.orthogonality_matrix(fam, 4, N_TERMS)

    def test_no_infinite_products(self, monkeypatch):
        # the weight table comes from the Pearson relation alone
        from qsympoly import families, qcore, sympoly, weights

        calls = []

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        for module in (qcore, sympoly, weights, families):
            for name in ("weight_star", "q_shifted_factorial_inf"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        for fam in (qp.make_ultraspherical(0.4, 0.7, CTX), qp.make_hermite(0.3, CTX)):
            qp.orthogonality_matrix(fam, 10, N_TERMS)
        assert calls == []
        qp.weight_grid_report(fam.V, fam.support, CTX, 0)
        assert calls == ["weight_star", "q_shifted_factorial_inf", "q_shifted_factorial_inf"]

    def test_forms_the_C_factors_once(self, monkeypatch):
        # one set of n-independent factors, read for each of C_1 .. C_n_max
        from qsympoly import families

        made, read = [], []
        real = families._C_terms

        def counted(V, ctx):
            made.append(ctx.q)
            terms = real(V, ctx)
            return lambda n: read.append(n) or terms(n)

        monkeypatch.setattr(families, "_C_terms", counted)
        qp.orthogonality_matrix(qp.make_hermite(0.3, CTX), 10, N_TERMS)
        assert (len(made), read) == (1, list(range(1, 11)))

    def test_near_q_one(self):
        # at q = 0.999 the weight products need more than 40,000 factors at
        # 40 digits; the Pearson table steps its head of J' = 6,223 points
        # in integers (a full table would start at a depth of about 60,000),
        # and sums the rest in closed form.  3000 points leave a tail of
        # 0.999^3000 = 0.05, so only the diagonal is meaningful here
        ctx = qp.QContext(0.999)
        fam = qp.make_ultraspherical(0.4, 0.7, ctx)
        G = qp.orthogonality_matrix(fam, 4, 3000)
        assert all(math.isfinite(G[n][n]) and G[n][n] > 0 for n in range(5))

    @pytest.mark.parametrize(
        "make, q, max_terms",
        [
            (partial(qp.make_hermite, 0.3), 1 - 1e-7, 10_000),
            (partial(qp.make_ultraspherical, 0.4, 0.7), 0.999, 1_000),
        ],
    )
    def test_start_depth_capped(self, make, q, max_terms):
        # the start depth J' of the head grows like 1 / (1 - q): about 1.0e8
        # for hermite at q = 1 - 1e-7, past max_terms = 10,000, and 6,223 for
        # the family above at q = 0.999, past max_terms = 1,000.  Both raise
        # before a single step is taken
        ctx = qp.QContext(q, max_terms=max_terms)
        fam = make(ctx)
        t0 = time.perf_counter()
        with pytest.raises(qp.TruncationError, match="start depth"):
            qp.orthogonality_matrix(fam, 4, 3000)
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("dps", [20, 60])
    def test_mpf_input_at_caller_precision(self, dps):
        # the assembly runs at no fewer digits than the float path, and the
        # entries come back as mpf at the caller's precision
        with mpmath.workdps(dps):
            ctx = qp.QContext(mpmath.mpf("0.5"))
            fam = qp.make_hermite(mpmath.mpf("0.3"), ctx)
            G = qp.orthogonality_matrix(fam, 10, N_TERMS)
            assert mpmath.mp.dps == dps
            worst = max(
                abs(G[i][j]) / mpmath.sqrt(G[i][i] * G[j][j])
                for i in range(11)
                for j in range(i + 2, 11, 2)
            )
            assert worst <= 1e-30
            # rounding to the caller's precision changes no entry
            assert all(isinstance(v, mpmath.mpf) and +v == v for row in G for v in row)

    @pytest.mark.parametrize("q,n_terms", [(0.3, 256), (0.9, 700)])
    def test_other_bases(self, q, n_terms):
        ctx = qp.QContext(q)
        for fam in (
            qp.make_ultraspherical(0.4, 0.7, ctx),
            qp.make_chebyshev5(ctx),
            qp.make_chebyshev6(ctx),
            qp.make_hermite(0.3, ctx),
        ):
            G = qp.orthogonality_matrix(fam, 6, n_terms)
            for i in range(7):
                for j in range(i + 1, 7):
                    if (i + j) % 2 == 0:
                        assert abs(G[i][j]) <= 1e-10 * (G[i][i] * G[j][j]) ** 0.5


class TestNormTriple:
    def test_reads_leading_block_of_given_gram(self):
        fam = qp.make_hermite(0.3, CTX)
        G = qp.orthogonality_matrix(fam, 10, N_TERMS)
        G8 = qp.orthogonality_matrix(fam, 8, N_TERMS)
        assert qp.norm_triple_report(fam, 8, G) == qp.norm_triple_report(fam, 8, G8)
        with pytest.raises(ValueError):
            qp.norm_triple_report(fam, 8, G[:8])

    def test_favard_column_is_favard_norm(self):
        # the report carries C_1 ... C_n across n; the bits match favard_norm
        for ctx in (CTX, qp.QContext(0.9)):
            for fam in (qp.make_hermite(0.3, ctx), qp.make_ultraspherical(0.4, 0.7, ctx)):
                report = qp.norm_triple_report(fam, 8, qp.orthogonality_matrix(fam, 8, N_TERMS))
                assert [r.favard for r in report] == [
                    qp.favard_norm(n, fam.V, ctx) for n in range(9)
                ]

    def test_hermite_report(self):
        fam = qp.make_hermite(0.3, CTX)
        report = qp.norm_triple_report(fam, 8, qp.orthogonality_matrix(fam, 8, N_TERMS))
        assert all(r.ok for r in report)
        for r in report:
            assert r.favard_vs_quadrature <= 1e-8
            if r.n % 2 == 0:
                assert not r.discrepancy_flagged
                assert r.closed_vs_favard <= 1e-10
            else:
                assert r.discrepancy_flagged
                assert r.closed_form < 0

    def test_ultraspherical_report_flags(self):
        fam = qp.make_ultraspherical(0.4, 0.7, CTX)
        report = qp.norm_triple_report(fam, 6, qp.orthogonality_matrix(fam, 6, N_TERMS))
        assert all(r.ok for r in report)
        assert all(r.discrepancy_flagged for r in report)
        assert all(r.favard_vs_quadrature <= 1e-8 for r in report)
        assert all(r.closed_form_note for r in report)

    def test_custom_family_has_no_closed_form(self):
        fam = qp.make_custom(-1.0, 1.0, -1.5, 0.2, CTX)
        report = qp.norm_triple_report(fam, 4, qp.orthogonality_matrix(fam, 4, N_TERMS))
        assert all(r.closed_form is None for r in report)
        assert not any(r.discrepancy_flagged for r in report)
        assert all(r.ok for r in report)


class TestReduction:
    def test_p0_reduction(self):
        rep = qp.hermite_p0_reduction_check(20, CTX)
        assert rep.ok_recurrence
        assert rep.max_recurrence_deviation <= 1e-13
        # the Pearson-consistent product form (the discrete q-Hermite I
        # weight) matches to rounding
        assert rep.max_weight_product_deviation <= 1e-12

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    def test_recurrence_collapse_all_q(self, q):
        ctx = qp.QContext(q)
        rep = qp.hermite_p0_reduction_check(20, ctx)
        assert rep.ok_recurrence
