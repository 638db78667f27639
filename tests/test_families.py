import mpmath
import pytest

import qsympoly as qp
from conftest import rel, rng

CTX = qp.QContext(0.5)
Q = 0.5
CFG = qp.JacksonConfig(CTX)


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
                assert rel(fam.norm_square(n), qp.favard_norm(n, fam.V, CTX)) < 1e-9

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
        G = qp.orthogonality_matrix(fam, 10, CFG)
        for i in range(11):
            for j in range(i + 1, 11):
                if (i + j) % 2:
                    assert G[i][j] == 0.0
                else:
                    assert abs(G[i][j]) <= 1e-10 * (G[i][i] * G[j][j]) ** 0.5

    def test_diagonal_matches_favard(self):
        fam = qp.make_hermite(0.3, CTX)
        G = qp.orthogonality_matrix(fam, 10, CFG)
        for n in range(1, 11):
            fav = qp.favard_norm(n, fam.V, CTX)
            assert rel(G[n][n] / G[0][0], fav) < 1e-9

    def test_matches_q_integral_symmetric(self):
        # the assembled entries equal literal Jackson integrals, on the scale
        # of the diagonal: the true off-diagonal entries are rounding noise
        fam = qp.make_ultraspherical(0.4, 0.7, CTX)
        G = qp.orthogonality_matrix(fam, 4, CFG, internal_dps=None)
        spec = fam.weight_spec()
        polys = [qp.build_monic(n, fam.V, CTX) for n in range(5)]
        for n in range(5):
            for m in range(n, 5, 2):
                direct = qp.q_integral_symmetric(
                    lambda t: spec.star(t) * polys[n](t) * polys[m](t), 1.0, CFG
                ).value
                assert abs(G[n][m] - direct) <= 1e-14 * (G[n][n] * G[m][m]) ** 0.5

    @pytest.mark.parametrize(
        "make,q",
        [(lambda ctx: qp.make_ultraspherical(mpmath.mpf("0.4"), mpmath.mpf("0.7"), ctx), "0.5"),
         (lambda ctx: qp.make_hermite(mpmath.mpf("0.3"), ctx), "0.3")],
        ids=["ultraspherical", "hermite"],
    )
    def test_mp40_oracle(self, make, q):
        # a literal Jackson sum over a direct weight_star table and Horner
        # values of the monic polynomials, at 40 digits
        n_max = 6
        with mpmath.workdps(40):
            ctx = qp.QContext(mpmath.mpf(q), eps_term=mpmath.mpf(10) ** -46)
            cfg = qp.JacksonConfig(ctx)
            fam = make(ctx)
            G = qp.orthogonality_matrix(fam, n_max, cfg)
            qm, alpha = ctx.q, fam.support
            xs = [alpha * qm**j for j in range(cfg.n_terms + 1)]
            ws = [qm**j * qp.weight_star(fam.V, ctx, x) for j, x in enumerate(xs)]
            polys = [qp.build_monic(n, fam.V, ctx) for n in range(n_max + 1)]
            pv = [[p(x) for x in xs] for p in polys]
            oracle = [
                [2 * alpha * (1 - qm) * mpmath.fsum(w * a * b for w, a, b in zip(ws, pn, pm))
                 for pm in pv]
                for pn in pv
            ]
            for n in range(n_max + 1):
                for m in range(n, n_max + 1, 2):
                    scale = mpmath.sqrt(oracle[n][n] * oracle[m][m])
                    assert abs(G[n][m] - oracle[n][m]) <= mpmath.mpf("1e-33") * scale

    def test_inadmissible_hermite(self):
        fam = qp.make_hermite(2.0, CTX)  # p (1 - q^2) = 1.5
        with pytest.raises(qp.AdmissibilityError):
            qp.orthogonality_matrix(fam, 4, CFG)

    @pytest.mark.parametrize("q,n_terms", [(0.3, 256), (0.9, 700)])
    def test_other_bases(self, q, n_terms):
        ctx = qp.QContext(q)
        cfg = qp.JacksonConfig(ctx, n_terms=n_terms)
        for fam in (
            qp.make_ultraspherical(0.4, 0.7, ctx),
            qp.make_chebyshev5(ctx),
            qp.make_chebyshev6(ctx),
            qp.make_hermite(0.3, ctx),
        ):
            G = qp.orthogonality_matrix(fam, 6, cfg)
            for i in range(7):
                for j in range(i + 1, 7):
                    if (i + j) % 2 == 0:
                        assert abs(G[i][j]) <= 1e-10 * (G[i][i] * G[j][j]) ** 0.5


class TestNormTriple:
    def test_reads_leading_block_of_given_gram(self):
        fam = qp.make_hermite(0.3, CTX)
        G = qp.orthogonality_matrix(fam, 10, CFG)
        assert qp.norm_triple_report(fam, 8, CFG, gram=G) == qp.norm_triple_report(fam, 8, CFG)
        with pytest.raises(ValueError):
            qp.norm_triple_report(fam, 8, CFG, gram=G[:8])

    def test_hermite_report(self):
        fam = qp.make_hermite(0.3, CTX)
        report = qp.norm_triple_report(fam, 8, CFG)
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
        report = qp.norm_triple_report(fam, 6, CFG)
        assert all(r.ok for r in report)
        assert all(r.discrepancy_flagged for r in report)
        assert all(r.favard_vs_quadrature <= 1e-8 for r in report)
        assert all(r.closed_form_note for r in report)

    def test_custom_family_has_no_closed_form(self):
        fam = qp.make_custom(-1.0, 1.0, -1.5, 0.2, CTX)
        report = qp.norm_triple_report(fam, 4, CFG)
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
