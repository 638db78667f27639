import math

import pytest

import qsympoly as qp
from conftest import rel

CTX = qp.QContext(0.5)


class TestContinuousPoly:
    def test_low_degrees(self):
        V = qp.CharVector(-1.0, 1.0, -6.0, 0.0)
        assert qp.continuous_poly(0, V, 0.37) == 1
        assert qp.continuous_poly(1, V, 0.37) == 0.37

    def test_quartic_satisfies_equation(self):
        V = qp.CharVector(-1.0, 1.0, -6.0, 0.0)
        coeffs = qp.continuous_poly_coeffs(4, V)
        assert coeffs[4] != 0 and coeffs[1] == 0 and coeffs[3] == 0
        for x in (0.17, 0.44, 0.81, 0.98):
            res = qp.continuous_ode_residual(4, V, x)
            assert abs(res) <= 1e-10 * max(1.0, abs(x) ** 6)

    def test_residual_many_degrees(self):
        V = qp.CharVector(-1.0, 1.0, -4.2, 0.8)
        for n in range(0, 9):
            for x in (0.3, 0.77):
                assert abs(qp.continuous_ode_residual(n, V, x)) <= 1e-10

    def test_symmetry(self):
        V = qp.CharVector(0.0, -1.0, 2.0, 0.6)
        for n in range(0, 10):
            for x in (0.4, 1.3):
                lhs = qp.continuous_poly(n, V, -x)
                rhs = (-1) ** n * qp.continuous_poly(n, V, x)
                assert rel(lhs, rhs, floor=1e-13) < 1e-13

    def test_zero_denominator(self):
        V = qp.CharVector(1.0, 1.0, 1.0, -3.0)  # (2i+e+2) b + d = 0 at i=0, even n
        with pytest.raises(qp.ZeroDenominatorError):
            qp.continuous_poly_coeffs(4, V)


class TestContinuousC:
    def test_hermite_limit_form(self):
        # V = (0, -1, 2, 2p) gives (p((-1)^n - 1) + n)/2
        for p in (0.0, 0.3):
            V = qp.CharVector(0.0, -1.0, 2.0, 2 * p)
            for n in range(1, 11):
                want = (p * ((-1) ** n - 1) + n) / 2
                assert rel(qp.continuous_C_limit(n, V), want) < 1e-14

    def test_ultraspherical_limit_form(self):
        al, be = 0.4, 0.7
        V = qp.CharVector(-1.0, 1.0, -2 * (al + be + 1), 2 * al)
        for n in range(1, 11):
            want = (
                n * n
                - 2 * (al * (-1) ** n * (al + be + n) - (al + be) * (al + n))
            ) / ((2 * al + 2 * be + 2 * n - 1) * (2 * al + 2 * be + 2 * n + 1))
            assert rel(qp.continuous_C_limit(n, V), want) < 1e-14

    def test_against_near_one_recurrence(self):
        # at eps = 1e-6 the recurrence denominators are O(eps^2), which is
        # below double rounding noise; the probe runs at elevated precision
        import mpmath

        from qsympoly.classical import continuous_char_vector

        with mpmath.workdps(30):
            ctx = qp.QContext(1 - mpmath.mpf("1e-6"))
            for mk in (
                lambda c: qp.make_ultraspherical(0.4, 0.7, c),
                qp.make_chebyshev5,
                qp.make_chebyshev6,
                lambda c: qp.make_hermite(0.3, c),
            ):
                fam = mk(ctx)
                vc = continuous_char_vector(fam)
                for n in range(1, 11):
                    lim = qp.continuous_C_limit(n, vc)
                    near = qp.recurrence_C(n, fam.V, ctx)
                    assert rel(float(lim), float(near)) < 1e-4

    def test_lambda_values(self):
        V = qp.CharVector(2.0, 1.0, 5.0, 0.0)
        assert qp.continuous_lambda_limit(0, V) == 0
        assert qp.continuous_lambda_limit(1, V) == -5
        assert qp.continuous_lambda_limit(3, V) == -27


class TestContinuousWeight:
    def test_chebyshev5(self):
        fam = qp.make_chebyshev5(CTX)
        assert rel(qp.continuous_weight(fam, 0.6), 0.45) < 1e-14

    def test_chebyshev6(self):
        fam = qp.make_chebyshev6(CTX)
        assert rel(qp.continuous_weight(fam, 0.6), 0.288) < 1e-14

    def test_hermite_origin(self):
        fam = qp.make_hermite(0.0, CTX)
        assert qp.continuous_weight(fam, 0.0) == 1.0

    def test_ultraspherical_value(self):
        fam = qp.make_ultraspherical(0.4, 0.7, CTX)
        x = 0.6
        want = (x * x) ** 0.4 * (1 - x * x) ** 0.7
        assert rel(qp.continuous_weight(fam, x), want) < 1e-14

    def test_aliasing_consistency(self):
        # ultraspherical(1, -1/2) has the fifth-kind limit weight pointwise
        ultra = qp.make_ultraspherical(1.0, -0.5, CTX)
        cheb = qp.make_chebyshev5(CTX)
        for x in (0.2, 0.55, 0.92):
            assert rel(
                qp.continuous_weight(ultra, x), qp.continuous_weight(cheb, x)
            ) < 1e-14

    def test_domain_error(self):
        fam = qp.make_chebyshev5(CTX)
        with pytest.raises(ValueError):
            qp.continuous_weight(fam, 1.2)


class TestLimitProbe:
    def test_validation(self):
        with pytest.raises(ValueError):
            qp.LimitProbe(eps_values=(1e-3, 1e-2))
        with pytest.raises(ValueError):
            qp.LimitProbe(eps_values=(0.7, 0.1))
        with pytest.raises(ValueError):
            qp.LimitProbe(extrapolation_order=0)


class TestLimitReports:
    def test_vanishing_target_gives_absolute_errors(self):
        rep = qp.limit_convergence_report(
            "C", lambda ctx: qp.make_hermite(0.5, ctx), 1, qp.LimitProbe()
        )
        assert rep.target == 0
        assert rep.raw_errors == tuple(abs(v) for v in rep.values)

    def test_lambda_sweep(self):
        rep = qp.limit_convergence_report(
            "lambda", lambda ctx: qp.make_hermite(0.3, ctx), 5, qp.LimitProbe()
        )
        assert rep.monotone
        assert rep.raw_errors[-1] <= 1e-3
        assert rep.extrapolated_error < rep.raw_errors[-1]

    def test_C_extrapolation_gain(self):
        probe = qp.LimitProbe()
        for n in range(1, 7):
            rep = qp.limit_convergence_report(
                "C", lambda ctx: qp.make_ultraspherical(0.4, 0.7, ctx), n, probe
            )
            assert rep.monotone
            assert rep.extrapolated_error <= 10 * rep.raw_errors[-1]

    def test_poly_sweep(self):
        rep = qp.limit_convergence_report(
            "poly", lambda ctx: qp.make_hermite(0.3, ctx), 5, qp.LimitProbe(), x=0.3
        )
        assert rep.monotone
        assert rep.raw_errors[0] > rep.raw_errors[-1]
        assert rep.raw_errors[-1] < 1e-3

    def test_weight_sweep(self):
        rep = qp.limit_convergence_report(
            "weight", lambda ctx: qp.make_chebyshev6(ctx), 0, qp.LimitProbe(), x=0.8
        )
        assert rep.monotone
        assert rep.raw_errors[-1] < 1e-3

    def test_fixed_vector_subject(self):
        V = qp.CharVector(1.3, -0.6, 0.8, 0.0)
        rep = qp.limit_convergence_report("C", V, 4, qp.LimitProbe())
        assert rep.monotone

    def test_weight_needs_family(self):
        V = qp.CharVector(1.3, -0.6, 0.8, 0.0)
        with pytest.raises(ValueError):
            qp.limit_convergence_report("weight", V, 0, qp.LimitProbe(), x=0.3)

    def test_poly_needs_x(self):
        with pytest.raises(ValueError):
            qp.limit_convergence_report(
                "poly", lambda ctx: qp.make_hermite(0.0, ctx), 3, qp.LimitProbe()
            )

    def test_unknown_quantity(self):
        with pytest.raises(ValueError):
            qp.limit_convergence_report(
                "mass", lambda ctx: qp.make_hermite(0.0, ctx), 3, qp.LimitProbe()
            )
