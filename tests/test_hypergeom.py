import itertools
import math
import re
import sys
import time
from fractions import Fraction

import pytest
import scipy.integrate as si
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc

from mops import hypergeom as hg
from mops.errors import DomainError, PoleError
from mops.jack import jack_identity_value
from mops.partitions import hook_products, partitions_of
from mops.rational import ALPHA, GAMMA, R, rf

a = ALPHA


def test_0f0_exponential_partial_sums():
    # partial sums of e^x at x = 1 through degree 8
    got = hg.ghypergeom(Fraction(1), [], [], ("vec", [1.0]), limit=8)
    want = sum(1.0 / math.factorial(k) for k in range(9))
    assert abs(got - want) < 1e-12
    exact = hg.ghypergeom(Fraction(1), [], [], ("xid", Fraction(1), 1), limit=8)
    assert exact == sum(Fraction(1, math.factorial(k)) for k in range(9))
    # int arguments stay exact: with no parameter the box's hook ratio alone
    # makes each term, and it must not come out as a float
    exact = hg.ghypergeom(1, [], [], ("xid", 1, 1), limit=8)
    assert type(exact) is Fraction and exact == sum(Fraction(1, math.factorial(k)) for k in range(9))


@pytest.mark.parametrize("upper", [[Fraction(0)], [Fraction(1, 2)]], ids=["upper0", "upper1/2"])
def test_float_point_gives_a_float(upper):
    # a point with a float coordinate gives a float even when only the
    # exact layer 0 contributes; an empty or exact point stays exact
    lower = [Fraction(3, 2)]
    assert type(hg.ghypergeom(Fraction(1), upper, lower, ("vec", [0.3, 0.2]), limit=4)) is float
    assert type(hg.ghypergeom(Fraction(1), upper, lower, ("vec", [0.3, Fraction(1, 5)]), limit=4)) is float
    empty = hg.ghypergeom(Fraction(1), upper, lower, ("vec", []), limit=4)
    assert type(empty) is Fraction and empty == 1
    assert type(hg.ghypergeom(Fraction(1), upper, lower, ("vec", [Fraction(3, 10)]), limit=4)) is Fraction


def test_1f0_binomial_series():
    # (1-x)^(-a) partial sums at the scalar-identity point, one variable
    x = Fraction(1, 3)
    ahalf = Fraction(5, 2)
    got = hg.ghypergeom(Fraction(1), [ahalf], [], ("xid", x, 1), limit=40)
    want = float((1 - x)) ** (-float(ahalf))
    assert abs(float(got) - want) < 1e-12


def test_2f0_terminates():
    # one variable: upper parameter -1 leaves 1 + (-1) a2 R exactly
    val = hg.ghypergeom(a, [rf(-1), rf(5)], [], ("xid", R, 1))
    assert val == 1 - 5 * R
    # several variables: -p truncates partition widths (kappa_1 <= p), so
    # the column partitions still contribute, up to total degree p*m
    m = 3
    val = hg.ghypergeom(a, [rf(-1), rf(5)], [], ("xid", R, m))
    expected = rf(1)
    from mops.binom import gsfact

    for kap in [(1,), (1, 1), (1, 1, 1)]:
        expected = expected + (
            gsfact(a, rf(-1), kap)
            * gsfact(a, rf(5), kap)
            * jack_identity_value(a, kap, "C", m)
            / math.factorial(len(kap))
            * R ** len(kap)
        )
    assert val == expected
    # exact termination: any larger cutoff gives the same rational function
    assert hg.ghypergeom(a, [rf(-1), rf(5)], [], ("xid", R, m), limit=11) == val


@pytest.mark.parametrize("alpha", [Fraction(1), Fraction(1, 2), Fraction(3)])
@pytest.mark.parametrize(
    "upper, lower",
    [([], []), ([Fraction(1, 2)], [Fraction(3, 2)]), ([Fraction(-2), Fraction(1, 3)], [Fraction(5, 2)])],
    ids=["0F0", "1F1", "2F1"],
)
def test_vec_point_matches_scalar_identity_exactly(alpha, upper, lower):
    # the vec side evaluates Jack tables at the point, the xid side sums
    # box-update identity values: at (x, ..., x) they agree exactly
    x = Fraction(2, 7)
    for m in (1, 2, 3):
        vec = hg.ghypergeom(alpha, upper, lower, ("vec", [x] * m), limit=8)
        xid = hg.ghypergeom(alpha, upper, lower, ("xid", x, m), limit=8)
        assert isinstance(vec, Fraction) and vec == xid, m


def test_terminating_series_ignore_higher_limits():
    for limit in (None, 10, 30):
        v = hg.ghypergeom(Fraction(2), [rf(-2), rf(3)], [], ("xid", Fraction(1, 5), 2), limit=limit)
        assert v == hg.ghypergeom(Fraction(2), [rf(-2), rf(3)], [], ("xid", Fraction(1, 5), 2))


def test_degree_layer_identity():
    # sum over kappa of C_kappa(I_m)/k! equals m^k/k! for each layer
    for m in range(1, 5):
        for k in range(0, 7):
            total = Fraction(0)
            for kap in partitions_of(k):
                if len(kap) > m:
                    continue
                total += jack_identity_value(Fraction(1, 2), kap, "C", m)
            assert total == Fraction(m) ** k


def test_series_layers_coefficients_stay_fractions():
    # the 1F1 behind largest_eig_cdf, and 0F0 with no parameter at all:
    # exact Fraction inputs give Fraction coefficients in every layer, the
    # empty partition at k = 0 included, and Fraction layer sums at the
    # identity, whose terms carry the box's hook ratio
    series = [(Fraction(1, 4), [], [], 3)]
    for alpha, gamma, m in ((Fraction(1), Fraction(1), 2), (Fraction(2), Fraction(1, 2), 3)):
        a1 = gamma + Fraction(m - 1) / alpha + 1
        b1 = gamma + 2 * Fraction(m - 1) / alpha + 2
        series.append((alpha, [a1], [b1], m))
    for alpha, upper, lower, m in series:
        layers = hg._series_layers(alpha, upper, lower, m)
        for k, terms in zip(range(8), layers):
            assert terms
            for kappa, coeff in terms:
                assert type(coeff) is Fraction, (k, kappa, coeff)
                if k == 0:
                    assert (kappa, coeff) == ((), Fraction(1))
        for k, c_k in zip(range(8), hg._identity_sums(alpha, upper, lower, m)):
            assert type(c_k) is Fraction, (alpha, upper, lower, m, k, c_k)


def _c_factor(alpha, kappa):
    """alpha^k k! / j_kappa, C_kappa over J_kappa, from the field's whole hook products."""
    from oracles import hook_products_field

    k = sum(kappa)
    return alpha**k * math.factorial(k) / hook_products_field(alpha, kappa)[2]


def test_series_layers_enumerate_only_contributing_partitions():
    # at most m parts, parts at most the width, and no layer past width * m
    alpha, m, width = Fraction(1, 2), 3, 2
    from mops.binom import gsfact

    layers = list(hg._series_layers(alpha, [Fraction(-width), Fraction(3)], [Fraction(5, 2)], m, width))
    assert len(layers) == width * m + 1
    for k, terms in enumerate(layers):
        want = [kap for kap in partitions_of(k) if len(kap) <= m and (not kap or kap[0] <= width)]
        assert [kappa for kappa, _ in terms] == want
        for kappa, term in terms:
            # the coefficient of C_kappa times C's factor alpha^k k! / j_kappa of J
            assert term == (
                gsfact(alpha, Fraction(-width), kappa)
                * gsfact(alpha, Fraction(3), kappa)
                / gsfact(alpha, Fraction(5, 2), kappa)
                / math.factorial(k)
                * _c_factor(alpha, kappa)
            )


def test_nonterminating_needs_limit():
    with pytest.raises(DomainError):
        hg.ghypergeom(Fraction(1), [rf(Fraction(1, 2)), rf(2)], [], ("xid", Fraction(1), 2))
    with pytest.raises(DomainError):
        # p >= q+2 refuses a tolerance-only request
        hg.ghypergeom(Fraction(1), [rf(Fraction(1, 2)), rf(2)], [], ("xid", Fraction(1), 2), tol=1e-6)


@pytest.mark.parametrize(
    "arg",
    [("xid", 2, 2), ("xid", Fraction(-5, 4), 3), ("vec", [0.5, 1.5]), ("vec", [Fraction(-3, 2)])],
    ids=str,
)
def test_p_equals_q_plus_1_refuses_a_point_outside_the_unit_ball(arg):
    # a tolerance can never be met there, so the refusal comes before any layer
    start = time.perf_counter()
    with pytest.raises(DomainError, match="2F1 diverges at this point"):
        hg.ghypergeom(Fraction(1), [1, 2], [Fraction(7, 2)], arg, tol=1e-9)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(1), Fraction(2)], ids=str)
def test_1f0_inside_the_unit_ball_is_the_determinant_power(alpha):
    # 1F0(a; X) = det(I - X)^(-a) for every alpha
    xs = [0.2, -0.3]
    got = hg.ghypergeom(alpha, [Fraction(3, 2)], [], ("vec", xs), tol=1e-12)
    want = ((1 - xs[0]) * (1 - xs[1])) ** -1.5
    assert abs(got - want) < 1e-11 * want
    exact = hg.ghypergeom(alpha, [Fraction(3, 2)], [], ("xid", Fraction(-1, 5), 2), tol=1e-12)
    assert abs(float(exact) - 1.2**-3) < 1e-11


def test_smallest_eig_m1_reduction():
    # with one eigenvalue the hypergeometric factor is 1
    terms = hg.smallest_eig_terms(Fraction(1), 4, 1)
    assert terms == [Fraction(1)]
    x = 1.7
    got = hg.smallest_eig_density(Fraction(1), 4, 1, x)
    assert abs(got - x**4 * math.exp(-x / 2)) < 1e-12


def test_smallest_eig_normalization():
    vals, mass = hg.smallest_eig_density_normalized(Fraction(1), 1, 2, [0.5, 1.0])
    total, err = si.quad(
        lambda t: hg.smallest_eig_density(Fraction(1), 1, 2, t) / mass,
        0,
        math.inf,
        limit=200,
    )
    assert abs(total - 1.0) < 1e-8


@pytest.mark.parametrize(
    "alpha, p, m",
    [
        (Fraction(1), 3, 3),
        (Fraction(1), 8, 2),
        (Fraction(2), 3, 3),
        (Fraction(1, 2), 2, 3),
        (Fraction(3, 2), 3, 4),
        (Fraction(1), 1, 1),
    ],
)
def test_smallest_eig_mass_exact(alpha, p, m):
    mass = hg.smallest_eig_mass(alpha, p, m)
    assert type(mass) is Fraction
    # quadrature is an independent oracle for the closed form
    quad, _ = si.quad(
        lambda t: hg.smallest_eig_density(alpha, p, m, t),
        0,
        math.inf,
        epsabs=1e-10,
        epsrel=1e-12,
        limit=200,
    )
    assert abs(quad - mass) <= 1e-10 * mass


def test_smallest_eig_mass_known_value():
    # complex Wishart 3x6: p = 3, m = 3
    assert hg.smallest_eig_mass(Fraction(1), 3, 3) == 2949120
    # one eigenvalue: int_0^inf x^p e^(-x/2) dx = p! 2^(p+1)
    for p in range(1, 6):
        assert hg.smallest_eig_mass(Fraction(1), p, 1) == math.factorial(p) * 2 ** (p + 1)


def test_smallest_eig_krishnaiah_chang_shape():
    # at alpha=2 the density is the classical real-Wishart form up to a
    # constant: the ratio to a reference point is scale-free
    p, m = 2, 3
    ref = hg.smallest_eig_density(Fraction(2), p, m, 1.0)

    def classical(x):
        # x^{pm} e^{-xm/2} 2F0(-p, (m+2)/2; -2 I_{m-1}/x) with the same
        # exact layer machinery but parameters fixed at alpha=2
        val = 0.0
        u = 1.0
        a1, a2 = Fraction(-p), Fraction(m + 2, 2)
        from mops.binom import gsfact

        for k in range(0, p * (m - 1) + 1):
            c = Fraction(0)
            for kap in partitions_of(k):
                if len(kap) > m - 1 or (kap and kap[0] > p):
                    continue
                c += (
                    gsfact(Fraction(2), a1, kap)
                    * gsfact(Fraction(2), a2, kap)
                    * jack_identity_value(Fraction(2), kap, "C", m - 1)
                    / math.factorial(k)
                )
            val += float(c) * u
            u *= -2.0 / x
        return x ** (p * m) * math.exp(-x * m / 2.0) * val

    ref_classical = classical(1.0)
    for x in [0.5, 1.5, 3.0, 6.0]:
        got = hg.smallest_eig_density(Fraction(2), p, m, x)
        assert abs(got / ref - classical(x) / ref_classical) < 1e-10


def test_smallest_eig_density_past_the_float_range_of_the_power():
    # x^(p m) = 700^200 overflows a double while the density, x^(p m)
    # e^(-m x / 2) sum_k c_k (-2/x)^k, is near 2.8e265
    import mpmath

    p, m, x = 100, 2, 700.0
    got = hg.smallest_eig_density(1, p, m, x)
    assert math.isfinite(got)
    with mpmath.workdps(50):
        xm = mpmath.mpf(x)
        series = mpmath.fsum(mpmath.mpf(c.numerator) / c.denominator * (-2 / xm) ** k
                             for k, c in enumerate(hg.smallest_eig_terms(1, p, m)))
        want = xm ** (p * m) * mpmath.exp(-m * xm / 2) * series
        assert abs(got - want) <= 1e-11 * want


def test_normalized_smallest_density_with_a_mass_past_the_float_range():
    # the mass is about 1.4e378; oracle: the beta = 2 joint density of two
    # eigenvalues, (s - t)^2 (s t)^p e^(-(s+t)/2), integrated in mpmath
    import mpmath

    p = 100
    with mpmath.workdps(50):
        x = mpmath.mpf(700)
        moment = lambda k: mpmath.gamma(k + 1) * 2 ** (k + 1)
        total = 2 * moment(p + 2) * moment(p) - 2 * moment(p + 1) ** 2
        weight = lambda t: (t - x) ** 2 * (x * t) ** p * mpmath.exp(-(x + t) / 2)
        want = 2 * mpmath.quad(weight, [x, x + 200, mpmath.inf]) / total
    values, mass = hg.smallest_eig_density_normalized(1, p, 2, [700.0, 1500.0, 3000.0])
    assert mass > Fraction(10) ** 378
    assert abs(values[0] / want - 1) < 1e-13
    # the true values, 6e-395 and 3e-986, underflow
    assert values[1:] == [0.0, 0.0]


@pytest.mark.parametrize("x", [40.0, 100.0])
def test_unnormalized_density_past_the_float_range_is_refused(x):
    with pytest.raises(DomainError, match="float range"):
        hg.smallest_eig_density(1, 100, 2, x)


def test_smallest_eig_requires_integer_p():
    with pytest.raises(DomainError):
        hg.smallest_eig_terms(Fraction(1), Fraction(3, 2), 2)


def test_largest_eig_cdf_chi2():
    for nu in (3, 5):
        gamma = Fraction(nu - 2, 2)
        for x in (1.0, 4.0):
            got = hg.largest_eig_cdf(Fraction(2), gamma, 1, x, tol=1e-12)
            want = gammainc(nu / 2.0, x / 2.0)
            assert abs(got - want) < 1e-10


def test_largest_eig_cdf_checks_gamma_before_x():
    for x in (-1.0, 0.0, 1.0):
        with pytest.raises(DomainError):
            hg.largest_eig_cdf(1, -3, 2, x)
    assert hg.largest_eig_cdf(1, 1, 2, -1.0) == 0.0


def test_largest_eig_cdf_properties():
    assert hg.largest_eig_cdf(Fraction(1), Fraction(1), 2, 1e-9) < 1e-12
    grid = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
    values = [hg.largest_eig_cdf(Fraction(1), Fraction(1), 2, x) for x in grid]
    assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(values, values[1:]))
    assert values[-1] <= 1.0


@pytest.mark.parametrize(
    "m, xs",
    [(2, [0.5, 2.0, 8.0, 16.0, 24.0, 32.0, 48.0, 64.0]), (3, [0.5, 2.0, 8.0, 12.0, 16.0])],
    ids=["m2", "m3"],
)
@pytest.mark.parametrize("gamma", [0, 1, 2])
def test_largest_eig_cdf_matches_hankel_oracle_into_the_tail(m, xs, gamma):
    # the Kummer form sums positive terms, so nothing cancels in the tail,
    # where the CDF is within 1e-9 of 1
    from oracles import largest_cdf_beta2

    values = [hg.largest_eig_cdf(Fraction(1), Fraction(gamma), m, x) for x in xs]
    for x, got in zip(xs, values):
        assert abs(got - largest_cdf_beta2(gamma, m, x)) <= 1e-9, (x, got)
    assert values == sorted(values)
    assert values[-1] <= 1.0


def test_largest_eig_cdf_range_ends_in_an_error_not_a_clamp():
    from mops.errors import ConvergenceError

    # far below the float range the CDF rounds to 0; nothing overflows
    assert hg.largest_eig_cdf(Fraction(1), Fraction(1), 2, 1e-60) == 0.0
    # past DEGREE_CAP the error carries the partial sum as it is
    with pytest.raises(ConvergenceError) as info:
        hg.largest_eig_cdf(Fraction(2), Fraction(1, 2), 1, 2000.0)
    assert 0.0 < info.value.partial < 1e-100


@pytest.mark.parametrize("gamma, x", [(100, 150.0), (500, 900.0), (1000, 1800.0)])
def test_largest_eig_cdf_sums_from_far_below_the_float_range(gamma, x):
    # at m = 1 the CDF is P(gamma + 1, x/2); the prefactor and the first
    # terms lie far below the float range, the powers (x/2)^k far above it
    import mpmath

    got = hg.largest_eig_cdf(Fraction(1), Fraction(gamma), 1, x, tol=1e-12)
    want = float(mpmath.gammainc(gamma + 1, 0, x / 2, regularized=True))
    assert abs(got - want) <= 1e-10 * want, (got, want)


def test_largest_eig_cdf_keeps_the_sum_in_logarithms():
    # the first terms underflow as floats; a float total would stop on them
    # and read 0.0 where the series has not converged by DEGREE_CAP
    from mops.errors import ConvergenceError

    with pytest.raises(ConvergenceError) as info:
        hg.largest_eig_cdf(Fraction(1), Fraction(1), 2, 1500.0)
    assert 0.0 < info.value.partial < 1e-100


def test_largest_eig_cdf_curve_points_equal_cold_calls():
    # a curve drawn largest x first, then in shuffled order, reads one held
    # prefix; every point must equal the same call from cleared tables
    from mops import cache

    alpha, gamma, m = Fraction(2), Fraction(1, 2), 3
    xs = [9.75, 2.5, 6.0, 0.25, 8.5, 4.0, 1.0]
    cache.clear_all()
    curve = [hg.largest_eig_cdf(alpha, gamma, m, x) for x in xs]
    # the Kummer series 1F1(b - a; b; x/2 I_3) with b - a = 2, b = 9/2
    held = hg._held_prefix(alpha, (Fraction(2),), (Fraction(9, 2),), m, None)
    degree = len(held.state[0]) - 1
    assert degree > 20
    # a loose tolerance stops below the degree already held
    loose = hg.largest_eig_cdf(alpha, gamma, m, 3.0, tol=1e-4)
    assert len(held.state[0]) - 1 == degree
    for x, got in zip(xs + [3.0], curve + [loose]):
        cache.clear_all()
        tol = 1e-4 if x == 3.0 else 1e-10
        assert hg.largest_eig_cdf(alpha, gamma, m, x, tol=tol) == got, x


def test_identity_callers_share_prefix_with_cold_results():
    # ghypergeom at x I_m and smallest_eig_terms read the same held sums
    from mops import cache

    upper, lower = [Fraction(1, 2)], [Fraction(3, 2)]
    calls = [
        lambda: hg.ghypergeom(Fraction(2), upper, lower, ("xid", Fraction(1, 2), 3), limit=12),
        lambda: hg.ghypergeom(Fraction(2), upper, lower, ("xid", Fraction(1, 3), 3), limit=5),
        lambda: hg.ghypergeom(Fraction(2), upper, lower, ("xid", Fraction(1, 2), 3), tol=1e-12),
        lambda: hg.ghypergeom(a, [a + 1], [rf(3) + a], ("xid", rf(Fraction(1, 2)), 2), limit=6),
        lambda: hg.smallest_eig_terms(Fraction(1), 3, 3),
        lambda: hg.smallest_eig_terms(Fraction(1), 2, 3),
    ]
    cache.clear_all()
    warm = [call() for call in calls]
    for call, got in zip(calls, warm):
        cache.clear_all()
        assert call() == got


def test_held_prefix_keeps_one_layer_of_terms():
    # a degree-100 series holds its 101 sums and only the layer of degree 100
    from mops import cache
    from mops.partitions import weight

    alpha, upper, lower, m = Fraction(1), (Fraction(1, 2),), (Fraction(3, 2),), 2
    cache.clear_all()
    hg.ghypergeom(alpha, list(upper), list(lower), ("xid", Fraction(1, 3), m), limit=100)
    held = hg._held_prefix(alpha, upper, lower, m, None)
    assert held.__slots__ == ("state",)
    sums, frontier = held.state
    assert len(sums) == 101
    assert {weight(kappa) for kappa in frontier} == {100}
    assert len(frontier) == 51


def test_ghypergeom_on_zero_variables_is_one():
    # every layer past k = 0 is empty on 0 variables, so the series ends there
    upper, lower = [Fraction(1)], [Fraction(2)]
    assert hg.ghypergeom(Fraction(1), upper, lower, ("xid", Fraction(1, 2), 0), limit=3) == 1
    assert hg.ghypergeom(Fraction(1), upper, lower, ("xid", Fraction(1, 2), 0), tol=1e-9) == 1
    assert hg.ghypergeom(Fraction(1), upper, lower, ("vec", []), tol=1e-9) == 1


def test_level_density_gaussian_base_case():
    for beta in (2, 4):
        got = hg.level_density(beta, 1, 0.3)
        want = math.exp(-0.045) / math.sqrt(2 * math.pi)
        assert abs(got - want) < 1e-14


def test_level_density_even_and_normalized():
    for beta, n in [(2, 4), (4, 4)]:
        for x in (0.35, 1.1):
            assert hg.level_density(beta, n, x) == hg.level_density(beta, n, -x)
        total, err = si.quad(
            lambda t: hg.level_density(beta, n, t),
            -math.inf,
            math.inf,
        )
        assert abs(total - 1.0) < 1e-8


def test_level_density_polynomial_is_a_fresh_list():
    # the held coefficients are a tuple; the caller gets a list it may change
    first = hg.level_density_polynomial(2, 3)
    first[:] = []
    assert hg.level_density_polynomial(2, 3) == hg.level_density_polynomial(2, 3) != []


def test_level_density_gue2_closed_form():
    # n=2, beta=2: marginal density (x^2 + 1) e^{-x^2/2} / (2 sqrt(2 pi))
    coeffs = hg.level_density_polynomial(2, 2)
    assert coeffs == [Fraction(1, 2), Fraction(0), Fraction(1, 2)]


def test_level_density_rounds_once():
    # oracle: the beta = 2 determinantal formula, rho(x) = e^(-x^2/2)
    # sum_{k<n} He_k(x)^2 / k! / (n sqrt(2 pi)), in mpmath
    import mpmath

    n = 10
    worst = 0.0
    with mpmath.workdps(40):
        for i in range(400):
            x = -8.0 + 16.0 * i / 399
            xm = mpmath.mpf(x)
            he = [2 ** (-mpmath.mpf(k) / 2) * mpmath.hermite(k, xm / mpmath.sqrt(2)) for k in range(n)]
            want = mpmath.fsum(h**2 / mpmath.factorial(k) for k, h in enumerate(he))
            want *= mpmath.exp(-xm * xm / 2) / (n * mpmath.sqrt(2 * mpmath.pi))
            worst = max(worst, float(abs(hg.level_density(2, n, x) / want - 1)))
    assert worst <= 4e-15


def test_level_density_scaled_mass():
    total, err = si.quad(lambda t: hg.level_density_scaled(2, 3, t), -3, 3)
    assert abs(total - 1.0) < 1e-8


def test_level_density_takes_no_whole_diagram_hooks(monkeypatch):
    # identity values and contiguous coefficients come from row-and-column
    # box updates; none of the per-diagram hook computations may run
    from mops import cache, jack, partitions

    want = hg.level_density_polynomial(4, 4)

    def refuse(*args):
        raise AssertionError("whole-diagram hook computation called")

    for module, name in [
        (jack, "jack_identity_value"),
        (partitions, "hook_products"),
        (partitions, "upper_hook"),
        (partitions, "lower_hook"),
        (partitions, "leg"),
    ]:
        monkeypatch.setattr(module, name, refuse)
    cache.clear_all()
    assert hg.level_density_polynomial(4, 4) == want


def test_level_density_rejects_odd_beta():
    with pytest.raises(DomainError):
        hg.level_density_polynomial(3, 2)
    # a float beta stays an error even with the entry of the int held
    hg.level_density_polynomial(2, 2)
    with pytest.raises(DomainError):
        hg.level_density(2.0, 2, 0.5)


_HALF_XID = ("xid", Fraction(1, 2), 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: hg.largest_eig_cdf(1, 0, 2, float("nan")),
        lambda: hg.largest_eig_cdf(1, 0, 2, float("inf")),
        lambda: hg.largest_eig_cdf(1, 0, 2, 1.0, tol=-1),
        lambda: hg.largest_eig_cdf(1, 0, 2, 1.0, tol=float("nan")),
        lambda: hg.largest_eig_cdf(1, 0, 2.0, 1.0),
        lambda: hg.largest_eig_cdf(1, 0, 0, 1.0),
        lambda: hg.ghypergeom(1, [1], [2], ("vec", [float("nan"), 0.1]), limit=3),
        lambda: hg.ghypergeom(1, [1], [2], ("xid", 1, 2), tol=-1),
        lambda: hg.ghypergeom(1, [1], [2], _HALF_XID, tol=float("nan")),
        lambda: hg.ghypergeom(1, [1], [2], _HALF_XID, tol=0),
        lambda: hg.ghypergeom(1, [1], [2], _HALF_XID, limit=-1),
        lambda: hg.ghypergeom(1, [1], [2], _HALF_XID, limit=2.5),
        lambda: hg.ghypergeom(1, [1], [2], ("xid", 1, 2.0), limit=3),
        lambda: hg.level_density_polynomial(2, 2.0),
        lambda: hg.level_density(2, 2, float("nan")),
        lambda: hg.smallest_eig_terms(1, True, 2),
        lambda: hg.smallest_eig_density_normalized(1, 1, 2, [float("nan"), 1.0]),
    ],
)
def test_bad_numbers_raise_domain_error(call):
    # no nan result, no truncated count, no 400-layer sum before failing
    start = time.perf_counter()
    with pytest.raises(DomainError):
        call()
    assert time.perf_counter() - start < 1.0


def test_out_of_range_points_fail_loudly_or_read_zero(monkeypatch):
    from mops.errors import ConvergenceError

    # an exact layer past the float range is refused where it is rounded
    with pytest.raises(DomainError, match="float range"):
        hg.ghypergeom(1, [], [], ("vec", [1e200]), limit=2)
    # 800^k passes the float range at k = 107, where the layer does not;
    # a series that needs more than DEGREE_CAP layers says so (a lower cap
    # keeps the test short)
    monkeypatch.setattr(hg, "DEGREE_CAP", 120)
    with pytest.raises(ConvergenceError):
        hg.ghypergeom(1, [], [], ("vec", [800.0]), tol=1e-10)
    # where the exponential factor underflows a density is 0, not nan;
    # the weight -m x / 2 is far below the float range, and -inf at 1e308
    for x in (1e20, 1e40, 1e100, 1e308):
        assert hg.smallest_eig_density(1, 3, 3, x) == 0.0
        assert hg.smallest_eig_density_normalized(1, 3, 3, [x]) == ([0.0], 2949120)
    assert hg.level_density(4, 4, 1e40) == 0.0
    assert hg.level_density_scaled(4, 4, 1e40) == 0.0
    # x^2 passes the float range here: the weight is -inf, the density 0
    assert hg.level_density(4, 4, 1e200) == 0.0
    assert hg.level_density_scaled(4, 4, 1e200) == 0.0
    # c x passes the float range here (c = sqrt(2 n beta)): still 0, not a refusal
    for x in (1e308, -1e308, sys.float_info.max):
        assert hg.level_density_scaled(4, 4, x) == 0.0


def test_smallest_eig_polynomial_is_held_under_checked_keys():
    # 2.0 hashes as 2: a held polynomial must not let a float p or m through
    curve = hg._smallest_eig_polynomial(Fraction(1), 2, 3)
    assert hg.smallest_eig_density(1, 2, 3, 1.5) == hg.smallest_eig_density(1, 2, 3, 1.5)
    assert hg._smallest_eig_polynomial(Fraction(1), 2, 3) is curve
    for p, m in [(2.0, 3), (2, 3.0)]:
        with pytest.raises(DomainError):
            hg.smallest_eig_density(1, p, m, 1.5)
        with pytest.raises(DomainError):
            hg.smallest_eig_density_normalized(1, p, m, [1.5])


@pytest.mark.parametrize("point", [[0.7], [0.45, -0.3], [0.9, 0.5, 0.1, -0.2]])
def test_vec_point_is_the_exact_sum_rounded_once(point):
    # a float coordinate is the dyadic Fraction it is; the sum of the
    # rounded layers differed in the last bit at each of these points
    from mops.rational import to_float

    upper, lower = [Fraction(1, 2)], [Fraction(3, 2)]
    got = hg.ghypergeom(1, upper, lower, ("vec", point), limit=12)
    exact = hg.ghypergeom(1, upper, lower, ("vec", [Fraction(v) for v in point]), limit=12)
    assert type(exact) is Fraction
    assert got == to_float(exact)


def test_vec_mode_rejects_symbolic_parameters():
    from mops.rational import N

    with pytest.raises(DomainError):
        hg.ghypergeom(Fraction(1), [N + 1], [], ("vec", [0.5]), limit=4)
    # constant rational functions are accepted and stay exact
    val = hg.ghypergeom(Fraction(1), [rf(Fraction(1, 2))], [], ("vec", [Fraction(1, 2)]), limit=12)
    want = float((1 - 0.5)) ** -0.5
    assert abs(float(val) - want) < 1e-4


def test_largest_eig_cdf_matches_joint_density_quadrature():
    # 2D oracle: P(both eigenvalues < x) from the joint density
    # |s-t|^(2/alpha) (st)^gamma exp(-(s+t)/2) on [0, inf)^2
    for alpha, gamma in [(1.0, 1.0), (2.0, 0.5)]:
        beta = 2.0 / alpha

        def weight(s, t):
            return abs(s - t) ** beta * (s * t) ** gamma * math.exp(-(s + t) / 2.0)

        Z, _ = si.dblquad(weight, 0, 60, lambda t: 0, lambda t: 60)
        for x in (2.0, 5.0, 9.0):
            num, _ = si.dblquad(weight, 0, x, lambda t: 0, lambda t: x)
            got = hg.largest_eig_cdf(
                Fraction(alpha), Fraction(gamma), 2, x, tol=1e-12
            )
            assert abs(got - num / Z) < 1e-7


def test_smallest_eig_density_matches_survival_derivative():
    # the normalized density equals -d/dx P(min eigenvalue > x)
    p, m = 1, 2

    def weight(s, t):
        return abs(s - t) ** 2 * (s * t) ** p * math.exp(-(s + t) / 2.0)

    Z, _ = si.dblquad(weight, 0, 70, lambda t: 0, lambda t: 70)

    def survival(x):
        num, _ = si.dblquad(weight, x, 70, lambda t: x, lambda t: 70)
        return num / Z

    mass = hg.smallest_eig_mass(Fraction(1), p, m)
    h = 1e-4
    for x in (0.5, 1.0, 2.5):
        got = hg.smallest_eig_density(Fraction(1), p, m, x) / mass
        want = (survival(x - h) - survival(x + h)) / (2 * h)
        assert abs(got - want) < 1e-6


def test_classification():
    assert hg.classify([rf(-2), rf(1)], []) == "terminating"
    assert hg.classify([], []) == "entire"
    assert hg.classify([rf(Fraction(1, 2))], [rf(3)]) == "entire"
    assert hg.classify([rf(Fraction(1, 2)), rf(1)], [rf(3)]) == "boundary"
    assert hg.classify([rf(Fraction(1, 2)), rf(1)], []) == "divergent"


def test_lower_parameter_pole():
    from mops.errors import PoleError

    with pytest.raises(PoleError):
        hg.ghypergeom(Fraction(1), [], [rf(0)], ("xid", Fraction(1), 1), limit=3)


def test_level_density_masses_more_betas():
    for beta, n in [(4, 3), (6, 2), (8, 2)]:
        total, _ = si.quad(
            lambda t: hg.level_density(beta, n, t),
            -math.inf,
            math.inf,
        )
        assert abs(total - 1.0) < 1e-8, (beta, n)


def test_largest_eig_cdf_three_eigenvalues():
    # one pointwise check against 3D quadrature of the joint density
    alpha, gamma = 1.0, 1.0

    def weight(s, t, u):
        rep = (abs(s - t) * abs(s - u) * abs(t - u)) ** 2.0
        return rep * (s * t * u) ** gamma * math.exp(-(s + t + u) / 2.0)

    hi = 70.0
    Z, _ = si.tplquad(weight, 0, hi, 0, hi, 0, hi, epsabs=1e-6, epsrel=1e-8)
    x = 8.0
    num, _ = si.tplquad(weight, 0, x, 0, x, 0, x, epsabs=1e-9, epsrel=1e-9)
    got = hg.largest_eig_cdf(Fraction(1), Fraction(1), 3, x, tol=1e-12)
    assert abs(got - num / Z) < 1e-5


def _closed_form_layers(alpha, upper, lower, m, degree, width=None):
    # the engine's two kinds of term from the definitions, partition by
    # partition: T_kappa = coeff_kappa C_kappa / J_kappa, and at the identity
    # coeff_kappa C_kappa(I_m) / alpha^k, the term of the same series with
    # the upper parameter m/alpha appended; with the layer's sum of
    # coeff_kappa C_kappa(I_m)
    from mops.binom import gsfact

    for k in range(degree + 1):
        rows, total = [], 0
        for kappa in partitions_of(k, max_part=width, max_len=m):
            coeff = alpha**0 / math.factorial(k)
            for a_i in upper:
                coeff = coeff * gsfact(alpha, a_i, kappa)
            for b_j in lower:
                coeff = coeff / gsfact(alpha, b_j, kappa)
            at_identity = coeff * jack_identity_value(alpha, kappa, "C", m)
            rows.append((kappa, coeff * _c_factor(alpha, kappa), at_identity / alpha**k))
            total = total + at_identity
        yield rows, total


def _identity_layers(alpha, upper, lower, m, width=None):
    """The layers of the series with m/alpha appended, walked with the engine's own step."""
    upper = list(upper) + [m / alpha]
    layer = {(): alpha**0}
    yield list(layer.items())
    for k in range(1, width * m + 1) if width is not None else itertools.count(1):
        layer = hg._next_layer(alpha, upper, lower, m, width, k, layer)
        yield list(layer.items())


@pytest.mark.parametrize(
    "alpha, upper, lower",
    [
        (Fraction(1), [Fraction(1, 2), Fraction(7, 3)], [Fraction(5, 2)]),
        (Fraction(2), [Fraction(3, 4)], [Fraction(1, 3), Fraction(9, 2)]),
        (Fraction(1, 2), [Fraction(5, 2), Fraction(-1, 3)], []),
        (Fraction(3, 2), [], [Fraction(7, 5)]),
        (a, [a + 1, rf(Fraction(1, 2))], [rf(3) + a]),
    ],
)
def test_series_layers_per_box_terms_match_closed_forms(alpha, upper, lower):
    # each term is updated from its parent partition; it must equal the
    # product of Pochhammer symbols (times C_kappa(I_m)) built from scratch
    degree = 8
    for m in range(1, 5):
        plain = hg._series_layers(alpha, upper, lower, m)
        ident = _identity_layers(alpha, upper, lower, m)
        sums = hg._identity_sums(alpha, upper, lower, m)
        want = _closed_form_layers(alpha, upper, lower, m, degree)
        for k, p_terms, i_terms, c_k, (rows, total) in zip(range(degree + 1), plain, ident, sums, want):
            assert [kappa for kappa, _ in p_terms] == [kappa for kappa, _, _ in rows]
            assert [kappa for kappa, _ in i_terms] == [kappa for kappa, _, _ in rows]
            for (kappa, coeff), (_, term), (_, c_want, t_want) in zip(p_terms, i_terms, rows):
                assert coeff == c_want, (m, kappa)
                assert term == t_want, (m, kappa)
            assert c_k == total, (m, k)


def test_series_layers_per_box_terms_terminating():
    # width-bounded: the upper parameter -2 ends the series at degree 2 m
    alpha, upper, lower, m, width = Fraction(3, 2), [Fraction(-2), Fraction(5, 3)], [Fraction(7, 2)], 3, 2
    got = list(_identity_layers(alpha, upper, lower, m, width))
    sums = list(hg._identity_sums(alpha, upper, lower, m, width))
    want = list(_closed_form_layers(alpha, upper, lower, m, width * m, width))
    assert len(got) == len(sums) == len(want) == width * m + 1
    for terms, c_k, (rows, total) in zip(got, sums, want):
        assert terms == [(kappa, term) for kappa, _, term in rows]
        assert c_k == total


@pytest.mark.parametrize(
    "alpha, lower, m, kappa",
    [
        (Fraction(1), [1], 2, "(1, 1)"),
        (Fraction(2), [Fraction(1, 2)], 3, "(1, 1)"),
        (Fraction(1), [Fraction(-1)], 3, "(2,)"),
        (Fraction(1, 2), [Fraction(3), Fraction(-3)], 2, "(4,)"),
    ],
)
def test_lower_parameter_pole_names_first_partition(alpha, lower, m, kappa):
    # poles off the first row sit at the corner of a rectangle; both the
    # identity and the plain coefficient walk name the first one reached
    from mops.errors import PoleError

    pattern = r"kappa=%s$" % re.escape(kappa)
    with pytest.raises(PoleError, match=pattern):
        hg.ghypergeom(alpha, [], lower, ("xid", 1, m), limit=6)
    with pytest.raises(PoleError, match=pattern):
        hg.ghypergeom(alpha, [], lower, ("vec", [0.1] * m), limit=6)


def test_a_vanishing_hook_raises_at_a_point_as_at_the_identity():
    # alpha = -1 zeros the hooks of (1, 1).  The terms near alpha = -1 sum
    # to about 3/8 at this point, where dropping the pole's term gave 1/4;
    # the point and its x I_m twin raise the same PoleError of (1, 1)
    point = [Fraction(1, 2), Fraction(1, 4)]
    for eps in (Fraction(1, 10**9), Fraction(-1, 10**9)):
        near = hg.ghypergeom(-1 + eps, [-1], [], ("vec", point), limit=2)
        assert abs(near - Fraction(3, 8)) < 1e-6
    texts = []
    for arg in (("vec", point), ("xid", Fraction(1, 2), 2)):
        with pytest.raises(PoleError) as err:
            hg.ghypergeom(-1, [-1], [], arg, limit=2)
        texts.append(str(err.value))
    assert texts == ["alpha = -1 is a pole of the hook products of (1, 1)"] * 2


def test_an_upper_parameter_zero_ends_the_series_at_degree_zero():
    # (0)_kappa = 0 for every kappa of degree >= 1, so the series is 1 at
    # every alpha, without a limit and past the poles of the hooks
    point = [Fraction(1, 2), Fraction(1, 4)]
    assert hg._negative_integer_bound([Fraction(3), Fraction(0), Fraction(-2)]) == 0
    assert hg.classify([0], []) == "terminating"
    for alpha in (-1, 1, Fraction(1, 2), -1 + Fraction(1, 10**9)):
        for arg in (("vec", point), ("xid", Fraction(1, 2), 2)):
            assert hg.ghypergeom(alpha, [0], [], arg, limit=3) == 1
            assert hg.ghypergeom(alpha, [0, Fraction(1, 2)], [3], arg) == 1
    assert hg.ghypergeom(1, [0], [], ("vec", [0.5, 0.25])) == 1.0
    assert hg.ghypergeom(a, [0], [], ("xid", Fraction(1, 2), 2)) == 1


def test_level_density_matches_hermite2_construction():
    # the density sums the two-box recurrence's values; the limiting-process
    # construction, scaled by C_kappa(I_n), must give the same polynomial
    from mops import orthopoly

    for beta, n in [(2, 3), (4, 3), (6, 2), (4, 4)]:
        alpha, kappa, k = Fraction(2, beta), (beta,) * (n - 1), beta * (n - 1)
        sums = orthopoly._scalar_identity_sums(orthopoly.hermite2(alpha, kappa, n))
        scale = Fraction(math.factorial(beta // 2), math.factorial(n * beta // 2))
        scale /= jack_identity_value(alpha, kappa, "C", n)
        want = [(-1) ** ((k - s) // 2) * scale * q for s, q in enumerate(sums)]
        assert hg.level_density_polynomial(beta, n) == want, (beta, n)


def _walk(step, alpha, upper, lower, m, at_identity, degree=8):
    """Layers 1..degree from one step function; a PoleError ends the list with its text.

    at_identity appends the upper parameter m/alpha of J_kappa(I_m), as
    ``hypergeom._identity_sums`` does.
    """
    from mops.errors import PoleError

    width = hg._negative_integer_bound(upper)
    if at_identity:
        upper = list(upper) + [m / alpha]
    layer, layers = {(): alpha**0}, []
    try:
        for k in range(1, degree + 1):
            layer = step(alpha, upper, lower, m, width, k, layer)
            layers.append([(kappa, term, repr(term)) for kappa, term in layer.items()])
    except PoleError as err:
        layers.append(str(err))
    return layers


_PARAMETERS = st.lists(st.builds(Fraction, st.integers(-7, 7), st.integers(1, 4)), max_size=2)


@settings(max_examples=80, deadline=None)
@given(
    st.builds(Fraction, st.integers(1, 5), st.integers(1, 4)),
    _PARAMETERS,
    st.one_of(st.none(), st.integers(1, 3)),
    _PARAMETERS,
    st.integers(1, 4),
    st.booleans(),
)
def test_next_layer_matches_the_field_form(alpha, upper, terminate_at, lower, m, at_identity):
    # the int ratio per partition against one field division per factor:
    # equal terms in one order, and the same pole at the same partition
    from oracles import next_layer_field

    if terminate_at is not None:
        upper = upper + [Fraction(-terminate_at)]
    got = _walk(hg._next_layer, alpha, upper, lower, m, at_identity)
    assert got == _walk(next_layer_field, alpha, upper, lower, m, at_identity)


@pytest.mark.parametrize("at_identity", [False, True])
@pytest.mark.parametrize(
    "alpha, upper, lower, m",
    [
        (a, [Fraction(-2), a + 1], [rf(3) + a], 3),
        (a, [rf(Fraction(1, 2))], [a], 2),
        (Fraction(3, 2), [], [GAMMA + 1], 3),  # int numerators over a field denominator
    ],
)
def test_next_layer_matches_the_field_form_with_symbols(alpha, upper, lower, m, at_identity):
    from oracles import next_layer_field

    got = _walk(hg._next_layer, alpha, upper, lower, m, at_identity, degree=6)
    assert got == _walk(next_layer_field, alpha, upper, lower, m, at_identity, degree=6)


@pytest.mark.parametrize("bad", ["0.5", True, rf(1)])
@pytest.mark.parametrize(
    "call",
    [
        lambda v: hg.smallest_eig_density(1, 3, 3, v),
        lambda v: hg.smallest_eig_density_normalized(1, 3, 3, [1.0, v]),
        lambda v: hg.largest_eig_cdf(1, 1, 2, v),
        lambda v: hg.largest_eig_cdf(1, 1, 2, 1.0, tol=v),
        lambda v: hg.level_density(4, 4, v),
        lambda v: hg.level_density_scaled(4, 4, v),
        lambda v: hg.ghypergeom(1, [1], [2], ("vec", [0.1, v]), limit=3),
        lambda v: hg.ghypergeom(1, [1], [2], _HALF_XID, tol=v),
    ],
    ids=["smallest", "smallest-grid", "largest-cdf", "largest-cdf-tol", "level", "level-scaled", "vec", "tol"],
)
def test_a_real_point_is_an_int_a_fraction_or_a_float(call, bad):
    # float("0.5") and True > 0 would take a string or a bool as the number it spells
    with pytest.raises(DomainError, match="must be a finite number"):
        call(bad)


def test_exact_points_give_the_float_point_values():
    half = Fraction(1, 2)
    assert hg.level_density(4, 4, half) == hg.level_density(4, 4, 0.5)
    assert hg.level_density_scaled(4, 4, half) == hg.level_density_scaled(4, 4, 0.5)
    assert hg.smallest_eig_density(1, 3, 3, 2) == hg.smallest_eig_density(1, 3, 3, 2.0)
    assert hg.largest_eig_cdf(1, 1, 2, 3, tol=Fraction(1, 10**10)) == hg.largest_eig_cdf(1, 1, 2, 3.0)


@pytest.mark.parametrize("beta, n", [(2, 3), (4, 4), (6, 4), (8, 5)])
def test_level_density_mass_is_one_exactly(beta, n):
    # int x^(2t) e^(-x^2/2) dx / sqrt(2 pi) = (2t-1)!!, so the exact mass is
    # sum_t q[2t] (2t-1)!!; the odd coefficients vanish
    q = hg.level_density_polynomial(beta, n)
    assert not any(q[1::2])
    mass = sum(c * math.prod(range(1, 2 * t, 2)) for t, c in enumerate(q[::2]))
    assert mass == 1


@pytest.mark.parametrize("alpha", [Fraction(-1), Fraction(-1, 2), Fraction(-2, 3), Fraction(-3)])
def test_vec_series_pole_names_the_first_pole_in_series_order(alpha):
    # the first partition, by degree and then decreasing lexicographic
    # order, whose hook product vanishes at alpha; 0F0 has no zero coefficient
    limit = 10
    for m in (1, 2, 3):
        poles = (kappa for k in range(limit + 1) for kappa in partitions_of(k, max_len=m) if not hook_products(alpha, kappa)[2])
        first = next(poles, None)
        point = [Fraction(1, 3), Fraction(-1, 2), Fraction(0)][:m]
        if first is None:
            assert isinstance(hg.ghypergeom(alpha, [], [], ("vec", point), limit=limit), Fraction)
            continue
        with pytest.raises(PoleError) as exc:
            hg.ghypergeom(alpha, [], [], ("vec", point), limit=limit)
        assert str(exc.value) == "alpha = %s is a pole of the hook products of %r" % (alpha, first)
    with pytest.raises(PoleError, match=re.escape("alpha = -1 is a pole of the hook products of (2,)")):
        hg.ghypergeom(-1, [], [], ("vec", [0.5, 0.25]), limit=3)


def test_vec_series_in_one_variable_is_the_exponential_partial_sum():
    # at m = 1, C_(k)(x) = x^k
    got = hg.ghypergeom(1, [], [], ("vec", [Fraction(1, 2)]), limit=400)
    assert got == sum(Fraction(1, 2**k * math.factorial(k)) for k in range(401))
