import copy
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsympoly as qp
from conftest import oracle_qpoch, rel

CTX = qp.QContext(0.5)


class TestQContext:
    @pytest.mark.parametrize("q", [0.0, 1.0, 1.5, -0.2])
    def test_rejects_bad_q(self, q):
        with pytest.raises(ValueError):
            qp.QContext(q)

    def test_rejects_bad_policy(self):
        with pytest.raises(ValueError):
            qp.QContext(0.5, max_terms=0)

    def test_init_fields(self):
        import inspect

        fields = tuple(inspect.signature(qp.QContext).parameters)
        assert fields == ("q", "max_terms")

    def test_eps_term_follows_q(self):
        import mpmath

        assert qp.QContext(0.5).eps_term == 1e-17
        for dps in (15, 40, 60):
            with mpmath.workdps(dps):
                ctx = qp.QContext(mpmath.mpf("0.5"))
                want = mpmath.ldexp(1, -(mpmath.mp.prec + 4))
            assert isinstance(ctx.eps_term, mpmath.mpf) and ctx.eps_term == want



# one instance of each value type, built twice, with its fields in
# constructor order
RECORDS = {
    "CharVector": (lambda: qp.CharVector(-1, 1, -2.25, 0.75), ("a", "b", "c", "d")),
    "QContext": (lambda: qp.QContext(0.5), ("q", "max_terms", "eps_term")),
    "SymPolynomial": (lambda: qp.SymPolynomial(2, (-0.5, 0, 1)), ("degree", "coeffs")),
    "JacksonConfig": (lambda: qp.JacksonConfig(CTX, 64), ("ctx", "n_terms")),
    "OrthogonalityClassification": (
        lambda: qp.OrthogonalityClassification("weak", (0.5, 0.0), (), (2,), ()),
        ("kind", "coefficients", "negative_indices", "zero_indices", "resonant_indices")),
    "WeightGridReport": (lambda: qp.WeightGridReport(False, 0.25, 0.75, 3),
                         ("positive", "min_value", "max_value", "first_bad_index")),
    "BoundaryReport": (lambda: qp.BoundaryReport(1e-18, 0.5, 2e-18),
                       ("boundary_value", "interior_max", "ratio")),
    "ReductionReport": (lambda: qp.ReductionReport(1e-16, 2e-16),
                        ("max_recurrence_deviation", "max_weight_product_deviation")),
    "NormTriple": (lambda: qp.NormTriple(3, None, 0.125, 0.125, 1e-16, None, True),
                   ("n", "closed_form", "favard", "quadrature", "favard_vs_quadrature",
                    "closed_vs_favard", "discrepancy_flagged")),
    "LimitReport": (
        lambda: qp.LimitReport("C", 3, None, (1e-2, 1e-3), (0.5, 0.51), 0.5, (0.0, 0.02),
                               False, 0.5, 0.0),
        ("quantity", "n", "x", "eps_values", "values", "target", "raw_errors", "monotone",
         "extrapolated_value", "extrapolated_error")),
}


@pytest.mark.parametrize("name", RECORDS)
class TestRecords:
    """The value types are immutable and equal, hashed, printed, pickled
    and copied by their fields."""

    def test_value_equality(self, name):
        make, _ = RECORDS[name]
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != object()

    def test_repr(self, name):
        make, fields = RECORDS[name]
        a = make()
        values = ", ".join(f"{f}={getattr(a, f)!r}" for f in fields)
        assert repr(a) == f"{name}({values})"

    def test_immutable(self, name):
        make, fields = RECORDS[name]
        a = make()
        with pytest.raises(AttributeError):
            setattr(a, fields[0], getattr(a, fields[0]))
        with pytest.raises(AttributeError):
            delattr(a, fields[0])
        with pytest.raises(AttributeError):
            a.unknown = 1

    def test_pickle_and_copy(self, name):
        make, _ = RECORDS[name]
        a = make()
        for b in (pickle.loads(pickle.dumps(a)), copy.copy(a)):
            assert type(b) is type(a) and b == a and repr(b) == repr(a)


@pytest.mark.parametrize("name", [
    "OrthogonalityClassification", "WeightGridReport", "BoundaryReport", "ReductionReport",
    "NormTriple", "LimitReport"])
def test_report_fields_by_position_or_keyword(name):
    make, fields = RECORDS[name]
    a = make()
    cls, values = type(a), [getattr(a, f) for f in fields]
    assert cls(*values[:1], **dict(zip(fields[1:], values[1:]))) == a
    for args, kwargs in (
        (values[:-1], {}),  # a field missing
        (values + [0], {}),  # one too many
        (values[:-1], {"unknown": 0}),
        (values, {fields[0]: values[0]}),  # a field twice
    ):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_pickled_context_keeps_eps_term():
    # eps_term follows the precision in force when the context was built,
    # not when it is unpickled
    import mpmath

    with mpmath.workdps(40):
        ctx = qp.QContext(mpmath.mpf("0.5"))
    assert pickle.loads(pickle.dumps(ctx)).eps_term == ctx.eps_term < 1e-40


def test_family_descriptor_identity_equality():
    fam = qp.make_hermite(0.3, CTX)
    twin = qp.make_hermite(0.3, CTX)
    assert fam == fam and fam != twin and hash(fam) == object.__hash__(fam)
    dup = copy.copy(fam)
    assert dup is not fam and dup != fam and repr(dup) == repr(fam)
    with pytest.raises(AttributeError):
        fam.name = "other"
    with pytest.raises(AttributeError):
        del fam.V


@pytest.mark.parametrize("name", ["exp", "log", "sqrt", "isfinite"])
@pytest.mark.parametrize("kind", ["int", "float", "mpf30"])
def test_typed_helper_follows_its_argument(name, kind):
    # math for an int or float, mpmath at the working precision otherwise
    import mpmath

    from qsympoly import qcore

    with mpmath.workdps(30):
        v = {"int": 3, "float": 0.7, "mpf30": mpmath.mpf("0.7")}[kind]
        got = getattr(qcore, f"{name}_")(v)
        want = getattr(mpmath if kind == "mpf30" else math, name)(v)
    if name == "isfinite":
        assert type(got) is bool
    else:
        assert type(got) is (mpmath.mpf if kind == "mpf30" else float)
    assert got == want


class TestQNumber:
    def test_zero(self):
        assert qp.q_number(0, CTX) == 0

    def test_one(self):
        assert qp.q_number(1, CTX) == 1

    def test_value(self):
        assert qp.q_number(3, CTX) == pytest.approx(1.75, rel=1e-15)

    def test_real_argument(self):
        q = 0.5
        assert qp.q_number(-1, CTX) == pytest.approx((1 / q - 1) / (q - 1), rel=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(-10, 10),
        st.integers(-10, 10),
        st.floats(min_value=0.05, max_value=0.95),
    )
    def test_addition_law(self, m, n, q):
        ctx = qp.QContext(q)
        lhs = qp.q_number(m + n, ctx)
        t1 = qp.q_number(m, ctx)
        t2 = q**m * qp.q_number(n, ctx)
        # relative to the identity's own term scale; the terms may cancel
        assert abs(lhs - (t1 + t2)) <= 1e-14 * max(1.0, abs(t1), abs(t2))


class TestQShiftedFactorial:
    def test_empty_product(self):
        assert qp.q_shifted_factorial(123.4, 0, CTX) == 1

    def test_zero_argument(self):
        assert qp.q_shifted_factorial(0.0, 7, CTX) == 1

    def test_value(self):
        assert qp.q_shifted_factorial(0.5, 2, CTX) == pytest.approx(0.375, rel=1e-15)

    def test_negative_length(self):
        with pytest.raises(ValueError):
            qp.q_shifted_factorial(0.5, -1, CTX)

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=-3, max_value=3),
        st.integers(0, 20),
        st.floats(min_value=0.05, max_value=0.95),
    )
    def test_recursion_exact_as_computed(self, x, n, q):
        ctx = qp.QContext(q)
        lhs = qp.q_shifted_factorial(x, n + 1, ctx)
        rhs = qp.q_shifted_factorial(x, n, ctx) * (1 - q**n * x)
        assert lhs == rhs


class TestQShiftedFactorialInf:
    def test_zero(self):
        import mpmath

        # every t is 0 from the start, and the log series must still end
        v = qp.q_shifted_factorial_inf(0.0, CTX)
        assert v == 1 and type(v) is float
        with mpmath.workdps(40):
            v = qp.q_shifted_factorial_inf(mpmath.mpf(0), qp.QContext(mpmath.mpf("0.5")))
        assert v == 1 and isinstance(v, mpmath.mpf)

    @pytest.mark.parametrize("xd", [1.0, 2.0])
    def test_zero_denominator_factor(self, xd):
        # 1 - b^j xd = 0 exactly at j = 0 resp. j = 1
        with pytest.raises(qp.ZeroDenominatorError, match="denominator product vanishes"):
            qp.q_shifted_factorial_inf(0.5, CTX, base=0.5, over=xd)

    def test_euler_like_value(self):
        # oracle: fixed-length partial product, long enough for 1e-17 factors
        expect = 1.0
        for j in range(200):
            expect *= 1 - 0.5 ** (j + 1)
        got = qp.q_shifted_factorial_inf(0.5, CTX)
        assert got == pytest.approx(expect, rel=1e-15)

    def test_negative_from_first_factor(self):
        # q = 0.4 leaves exactly one negative factor (1 - 2) in the product
        v = qp.q_shifted_factorial_inf(2.0, qp.QContext(0.4))
        assert v < 0 and math.isfinite(v)

    def test_exact_zero_factor(self):
        # at x = 2, q = 0.5 the j = 1 factor is 1 - q x = 0 exactly
        assert qp.q_shifted_factorial_inf(2.0, CTX) == 0.0

    def test_truncation_error(self):
        ctx = qp.QContext(0.5, max_terms=3)
        with pytest.raises(qp.TruncationError):
            qp.q_shifted_factorial_inf(0.9, ctx)

    def test_max_terms_caps_the_head(self):
        # the head runs from |x| = 1e6 down to about 1e-3, 20,700 factors at q = 0.999
        with pytest.raises(qp.TruncationError):
            qp.q_shifted_factorial_inf(1e6, qp.QContext(0.999))
        # x = 0.3 ends its head after 5,701 factors, where the whole
        # product to eps_term would need 37,922
        assert 0 < qp.q_shifted_factorial_inf(0.3, qp.QContext(0.999, max_terms=5_800))

    def test_type_follows_input(self):
        import mpmath

        assert type(qp.q_shifted_factorial_inf(0.5, qp.QContext(0.9))) is float
        with mpmath.workdps(40):
            v = qp.q_shifted_factorial_inf(mpmath.mpf("0.5"), qp.QContext(mpmath.mpf("0.9")))
        assert isinstance(v, mpmath.mpf)

    @pytest.mark.parametrize("x", [0.99, -2.0])
    def test_float_range_is_typed(self, x):
        # at q = 0.998, (0.99; q)_inf = 2.4e-346 underflows and (-2; q)_inf = 8.2e+311 overflows
        with pytest.raises(qp.QSymPolyError, match="float range"):
            qp.q_shifted_factorial_inf(x, qp.QContext(0.998))


def _product_oracle(x, q, dps):
    """(x; q)_inf to about dps digits: every factor, with t stepped by q,
    down to the first |t| below 10^-dps (1 - q), where the rest changes
    the product by less than 10^-dps relative.  Python ints in fixed
    point at F bits, the product as m 2^e with m kept near 2^F, so that
    tens of thousands of factors take well under a second."""
    import mpmath

    F = int(dps * 3.33) + 40
    one = 1 << F
    t = int(mpmath.ldexp(mpmath.mpf(x), F))
    Q = int(mpmath.ldexp(mpmath.mpf(q), F))
    stop = int(mpmath.ldexp(mpmath.mpf(10) ** -dps * (1 - mpmath.mpf(q)), F))
    m, e = one, 0
    while abs(t) >= stop:
        m = m * (one - t) >> F
        t = t * Q >> F
        shift = abs(m).bit_length() - F - 1
        if abs(shift) > 32:
            m, e = m >> shift if shift > 0 else m << -shift, e + shift
    with mpmath.workdps(dps):
        return mpmath.ldexp(mpmath.mpf(m), e - F)


FLOAT_XS = [k / 4 - 3 for k in range(16)]
# q -> the largest error against the reference at FLOAT_XS of the former
# product, which multiplied every factor down to |t| < 1e-17 (at q = 0.998
# with max_terms raised)
FLOAT_PARENT_ERRORS = {0.3: 1.597e-15, 0.5: 7.849e-16, 0.9: 3.032e-15, 0.99: 1.995e-14,
                       0.998: 6.839e-14}


@pytest.mark.parametrize("q", list(FLOAT_PARENT_ERRORS))
def test_float_product_against_40_digits(q):
    import sys

    ctx = qp.QContext(q)
    worst = 0.0
    # at q = 0.998 the products at x <= -2 overflow
    for x in FLOAT_XS:
        ref = _product_oracle(x, q, 40)
        if not sys.float_info.min <= abs(ref) <= sys.float_info.max:
            with pytest.raises(qp.QSymPolyError):
                qp.q_shifted_factorial_inf(x, ctx)
            continue
        worst = max(worst, float(abs(qp.q_shifted_factorial_inf(x, ctx) - ref) / abs(ref)))
    assert worst <= FLOAT_PARENT_ERRORS[q]


MP_XS = [k / 2 - 3 for k in range(8)]
# q -> the parent's largest error of the 40-digit product against 70 digits
MP40_PARENT_ERRORS = {0.3: 1.109e-40, 0.5: 4.807e-41, 0.9: 3.436e-40, 0.99: 2.147e-39}


@pytest.mark.parametrize("q", list(MP40_PARENT_ERRORS))
def test_mp40_product_against_70_digits(q):
    import mpmath

    worst = 0
    with mpmath.workdps(40):
        ctx = qp.QContext(mpmath.mpf(q))
        for x in MP_XS:
            v = qp.q_shifted_factorial_inf(mpmath.mpf(x), ctx)
            ref = _product_oracle(x, q, 70)
            worst = max(worst, abs(v - ref) / abs(ref))
    assert worst <= MP40_PARENT_ERRORS[q]


class TestQBinomial:
    def test_m_zero(self):
        assert qp.q_binomial(9, 0, CTX) == 1

    def test_value(self):
        assert qp.q_binomial(2, 1, CTX) == pytest.approx(1.5, rel=1e-15)

    def test_symmetry(self):
        for n in range(8):
            for m in range(n + 1):
                assert qp.q_binomial(n, m, CTX) == pytest.approx(
                    qp.q_binomial(n, n - m, CTX), rel=1e-14
                )

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            qp.q_binomial(3, 4, CTX)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 16),
        st.floats(min_value=0.05, max_value=0.95),
    )
    def test_pascal_rule(self, n, q):
        ctx = qp.QContext(q)
        for m in range(1, n):
            lhs = qp.q_binomial(n, m, ctx)
            rhs = qp.q_binomial(n - 1, m - 1, ctx) + q**m * qp.q_binomial(n - 1, m, ctx)
            assert rel(lhs, rhs) < 1e-13


class TestBasicHypergeometric:
    def test_zero_argument(self):
        assert qp.basic_hypergeometric((0.3, 0.2), (0.7,), 0.25, 0.0, 3) == 1

    def test_unit_upper_parameter(self):
        # (1; base)_k = 0 for k >= 1, so every term past k = 0 vanishes
        assert qp.basic_hypergeometric((1.0, 0.37), (0.7,), 0.25, 0.9, 3) == 1

    def test_terminating_2phi1_against_direct_sum(self):
        q = 0.5
        base = q * q
        A, B, z = 0.3, 0.7, 0.8
        u1 = q**-2  # base**(-1): terminates after k = 1
        direct = 1.0 + (1 - u1) * (1 - A) / ((1 - base) * (1 - B)) * z
        assert rel(qp.basic_hypergeometric((u1, A), (B,), base, z, 1), direct) < 1e-14

    def test_upper_permutation_invariance(self):
        q = 0.5
        base = q * q
        u1 = base**-3
        for z in (0.3, -1.7, 2.5):
            v1 = qp.basic_hypergeometric((u1, 0.4, 0.9), (0.6, 0.2), base, z, 3)
            v2 = qp.basic_hypergeometric((0.9, u1, 0.4), (0.6, 0.2), base, z, 3)
            assert rel(v1, v2) < 1e-14

    def test_ill_defined_lower(self):
        base = 0.25
        with pytest.raises(qp.IllDefinedSeriesError):
            qp.basic_hypergeometric((base**-3, 0.3), (base**-2,), base, 0.5, 3)


class TestQDerivative:
    def test_constant(self):
        assert qp.q_derivative(lambda t: 4.2, 0.7, CTX) == 0

    def test_identity(self):
        assert qp.q_derivative(lambda t: t, 0.31, CTX) == pytest.approx(1.0, rel=1e-14)

    def test_square(self):
        assert qp.q_derivative(lambda t: t * t, 1.0, CTX) == pytest.approx(1.5, rel=1e-14)

    def test_at_zero_needs_value(self):
        with pytest.raises(ValueError):
            qp.q_derivative(lambda t: t, 0.0, CTX)
        assert qp.q_derivative(lambda t: t, 0.0, CTX, derivative_at_zero=1.0) == 1.0

    def test_monomial_rule(self):
        # D_q x^n = [n]_q x^(n-1), exact for polynomials up to rounding
        for n in range(1, 21):
            for x in (0.3, -0.8, 1.7):
                got = qp.q_derivative(lambda t: t**n, x, CTX)
                want = qp.q_number(n, CTX) * x ** (n - 1)
                assert rel(got, want) < 1e-13


class TestSigmaParity:
    @pytest.mark.parametrize("n,expect", [(4, 0), (7, 1), (-1, 1), (0, 0), (-2, 0)])
    def test_values(self, n, expect):
        assert qp.sigma_parity(n) == expect


def test_mpf_passthrough():
    """The same entry points run at elevated precision with mpf inputs."""
    import mpmath

    with mpmath.workdps(40):
        ctx = qp.QContext(mpmath.mpf("0.5"))
        v = qp.q_shifted_factorial_inf(mpmath.mpf("0.5"), ctx)
        assert isinstance(v, mpmath.mpf)
        assert abs(v - qp.q_shifted_factorial_inf(0.5, CTX)) < 1e-15
        assert qp.q_number(3, ctx) == mpmath.mpf("1.75")


def test_finite_factorial_matches_oracle():
    for x in (-1.2, 0.4, 2.0):
        for n in (0, 1, 5, 12):
            assert rel(
                qp.q_shifted_factorial(x, n, CTX), oracle_qpoch(x, 0.5, n), floor=1e-30
            ) < 1e-14
