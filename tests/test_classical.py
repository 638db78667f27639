import math

import mpmath
import pytest

import qsympoly as qp
from conftest import Q_NEAR_ONE, family_builders, mp40_chebyshev6_near_one, rel, rng
from qsympoly import classical

CTX = qp.QContext(0.5)


class TestContinuousPoly:
    def test_low_degrees(self):
        V = qp.CharVector(-1.0, 1.0, -6.0, 0.0)
        assert qp.continuous_poly_coeffs(0, V) == (1,)
        assert qp.continuous_poly_coeffs(1, V) == (0, 1)

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
        # p_n(-x) = (-1)^n p_n(x): every coefficient of the opposite parity is exactly 0
        V = qp.CharVector(0.0, -1.0, 2.0, 0.6)
        for n in range(0, 10):
            coeffs = qp.continuous_poly_coeffs(n, V)
            assert all(c == 0 for c in coeffs[1 - n % 2::2])

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

        with mpmath.workdps(30):
            ctx = qp.QContext(1 - mpmath.mpf("1e-6"))
            for mk in (
                lambda c: qp.make_ultraspherical(0.4, 0.7, c),
                qp.make_chebyshev5,
                qp.make_chebyshev6,
                lambda c: qp.make_hermite(0.3, c),
            ):
                fam = mk(ctx)
                vc = fam.limit_V
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

    def test_origin_follows_type_of_x(self):
        cases = [
            (qp.make_hermite(0.0, CTX), "1"),
            (qp.make_hermite(0.3, CTX), "inf"),
            (qp.make_hermite(-0.3, CTX), "0"),
            (qp.make_ultraspherical(0.0, 0.7, CTX), "1"),
            (qp.make_ultraspherical(0.4, 0.7, CTX), "0"),
        ]
        for fam, want in cases:
            w = qp.continuous_weight(fam, 0.0)
            assert type(w) is float and repr(w) == repr(float(want))
            with mpmath.workdps(30):
                w = qp.continuous_weight(fam, mpmath.mpf(0))
                assert isinstance(w, mpmath.mpf) and w == mpmath.mpf(want)

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


class TestLimitReports:
    def test_vanishing_target_gives_absolute_errors(self):
        [rep] = qp.limit_convergence_report(
            "C", lambda ctx: qp.make_hermite(0.5, ctx), (1,)
        )
        assert rep.target == 0
        assert rep.raw_errors == tuple(abs(v) for v in rep.values)

    def test_lambda_sweep(self):
        [rep] = qp.limit_convergence_report(
            "lambda", lambda ctx: qp.make_hermite(0.3, ctx), (5,)
        )
        assert rep.monotone
        assert rep.raw_errors[-1] <= 1e-3
        assert rep.extrapolated_error < rep.raw_errors[-1]

    def test_C_extrapolation_gain(self):
        for rep in qp.limit_convergence_report(
            "C", lambda ctx: qp.make_ultraspherical(0.4, 0.7, ctx), range(1, 7)
        ):
            assert rep.monotone
            assert rep.extrapolated_error <= 10 * rep.raw_errors[-1]

    def test_poly_sweep(self):
        [rep] = qp.limit_convergence_report(
            "poly", lambda ctx: qp.make_hermite(0.3, ctx), (5,), x=0.3
        )
        assert rep.monotone
        assert rep.raw_errors[0] > rep.raw_errors[-1]
        assert rep.raw_errors[-1] < 1e-3

    def test_weight_sweep(self):
        [rep] = qp.limit_convergence_report(
            "weight", lambda ctx: qp.make_chebyshev6(ctx), (0,), x=0.8
        )
        assert rep.monotone
        assert rep.raw_errors[-1] < 1e-3

    def test_weight_sweep_near_one_against_40_digits(self):
        # the eps = 1e-4 point, W*(0.8) / W*(0.5) from two float products
        # of quotients, each with a head of about 30,000 factors
        [rep] = qp.limit_convergence_report("weight", qp.make_chebyshev6, (0,), x=0.8)
        assert 1 - rep.eps_values[-1] == Q_NEAR_ONE
        want = mp40_chebyshev6_near_one(0.8) / mp40_chebyshev6_near_one(0.5)
        assert rel(rep.values[-1], want) <= 1e-10

    def test_weight_invalid_power_base(self):
        # 1 + p (1 - q^2) < 0 at q = 0.99: the same error as weight_star's
        with pytest.raises(qp.InvalidBaseError):
            qp.limit_convergence_report(
                "weight", lambda ctx: qp.make_hermite(-100.0, ctx), (0,), x=0.8
            )

    def test_fixed_vector_subject(self):
        # a custom family is its own q -> 1 limit
        custom = lambda ctx: qp.make_custom(1.3, -0.6, 0.8, 0.0, ctx)
        [rep] = qp.limit_convergence_report("C", custom, (4,))
        assert rep.monotone

    def test_weight_needs_family(self):
        # a custom family has no continuous weight to compare with
        custom = lambda ctx: qp.make_custom(1.3, -0.6, 0.8, 0.0, ctx)
        with pytest.raises(ValueError):
            qp.limit_convergence_report("weight", custom, (0,), x=0.3)

    def test_poly_needs_x(self):
        with pytest.raises(ValueError):
            qp.limit_convergence_report(
                "poly", lambda ctx: qp.make_hermite(0.0, ctx), (3,)
            )

    def test_unknown_quantity(self):
        with pytest.raises(ValueError):
            qp.limit_convergence_report(
                "mass", lambda ctx: qp.make_hermite(0.0, ctx), (3,)
            )


def _per_degree_report(quantity, subject, n, x=None):
    """One degree's report as limit_convergence_report formed it before the
    degrees shared one pass per sweep context: each value from scratch, by
    recurrence_C, eigenvalue or eval_explicit.  The oracle of TestOnePass."""
    value = {
        "C": lambda n, V, ctx, x: qp.recurrence_C(n, V, ctx),
        "lambda": lambda n, V, ctx, x: qp.eigenvalue(n, V, ctx),
        "poly": qp.eval_explicit,
    }[quantity]
    target_and_scale = classical._QUANTITIES[quantity][1]
    fams = [subject(ctx) for ctx in classical._SWEEP_CTXS]
    target, scale = target_and_scale(n, fams[0], x)
    if scale == 0:
        scale = 1
    values = [value(n, fam.V, ctx, x) for ctx, fam in zip(classical._SWEEP_CTXS, fams)]
    raw_errors = tuple(abs(v - target) / scale for v in values)
    monotone = all(e1 >= e2 for e1, e2 in zip(raw_errors, raw_errors[1:]))
    extrap = classical._neville_at_zero(classical.LIMIT_EPS, values)
    return classical.LimitReport(
        quantity=quantity,
        n=n,
        x=x,
        eps_values=classical.LIMIT_EPS,
        values=tuple(values),
        target=target,
        raw_errors=raw_errors,
        monotone=monotone,
        extrapolated_value=extrap,
        extrapolated_error=abs(extrap - target) / scale,
    )


class TestOnePass:
    """The reports of all degrees from one pass per sweep context equal the
    per-degree reports field for field, by repr, errors included."""

    DEGREES = range(1, 11)

    @staticmethod
    def subjects():
        subjects = family_builders()
        subjects["hermite(0.5)"] = lambda ctx: qp.make_hermite(0.5, ctx)
        subjects["custom(-1,1,-1.5,0.2)"] = lambda ctx: qp.make_custom(-1.0, 1.0, -1.5, 0.2, ctx)
        # at q = 0.99, the first sweep point: b [1] + d q = 0 stops the
        # explicit form at every even n (a ZeroDenominatorError entry), and
        # a + c (q - 1) = a / q cancels the C_1 denominator (a ResonanceError,
        # which ends the sweep)
        subjects["explicit resonance"] = lambda ctx: qp.make_custom(1.0, -1.0, 1.0, 1 / 0.99, ctx)
        subjects["C_1 resonance"] = lambda ctx: qp.make_custom(1.0, 1.0, -1 / 0.99, 0.5, ctx)
        r = rng(29)
        for i in range(8):
            V = tuple(r.uniform(-2, 2) for _ in range(4))
            subjects[f"random {i} {V}"] = lambda ctx, V=V: qp.make_custom(*V, ctx)
        return subjects

    def per_degree(self, qty, subject, x):
        out = []
        for n in self.DEGREES:
            try:
                out.append(repr(_per_degree_report(qty, subject, n, x)))
            except qp.ZeroDenominatorError as exc:
                out.append(repr(exc))
            except qp.QSymPolyError as exc:
                # it ended the sweep over the degrees
                return repr(exc)
        return out

    def one_pass(self, qty, subject, x):
        try:
            return [repr(e) for e in qp.limit_convergence_report(qty, subject, self.DEGREES, x)]
        except qp.QSymPolyError as exc:
            return repr(exc)

    @pytest.mark.parametrize("qty,x", [("C", None), ("lambda", None), ("poly", 0.3),
                                       ("poly", -0.77)])
    def test_equal_to_per_degree_reports(self, qty, x):
        reports = 0
        for name, subject in self.subjects().items():
            want = self.per_degree(qty, subject, x)
            assert self.one_pass(qty, subject, x) == want, name
            reports += sum(e.startswith("LimitReport") for e in want)
        assert reports >= 100

    def test_hermite_half_even_polys_unevaluable(self):
        entries = qp.limit_convergence_report(
            "poly", lambda ctx: qp.make_hermite(0.5, ctx), self.DEGREES, x=0.3)
        assert [n for n, e in zip(self.DEGREES, entries)
                if isinstance(e, qp.ZeroDenominatorError)] == [2, 4, 6, 8, 10]
        assert all(isinstance(e, classical.LimitReport) for e in entries[::2])
