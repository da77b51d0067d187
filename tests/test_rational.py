import math
import random
import time
from fractions import Fraction
from functools import partial
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mops import binom, cache, expect, hypergeom, jack, operators, orthopoly, partitions, rational, symfun
from mops.errors import DomainError, PoleError
from mops.rational import (
    ALPHA,
    G1,
    G2,
    GAMMA,
    N,
    NPARAMS,
    PARAMS,
    R,
    Infinity,
    RationalFunction,
    _canonicalize,
    _p_add,
    _p_mul,
    _p_neg,
    _p_positive,
    param,
    ratio,
    rf,
)
from mops.symfun import GENERIC, SymExpr

from oracles import (
    contiguous_all_boxes,
    gbinomial_field,
    hermite_values_field,
    hook_products_field,
    m2jack_field,
)

a = ALPHA
n = N


def test_arith_examples():
    assert 1 / a + a / (1 + a) == (1 + a + a**2) / (a * (1 + a))
    assert (a**2 - 1) / (a + 1) == a - 1
    assert (n * (n + a) / a) * (a / n) == n + a


def test_division_by_zero():
    with pytest.raises(DomainError):
        (a + 1) / (a - a)


def test_substitute_examples():
    f = (1 + a) / a
    assert f.substitute({"a": 2}).to_fraction() == Fraction(3, 2)
    g = n * (n + a) / (1 + a)
    assert g.substitute({"n": 1}) == 1
    with pytest.raises(PoleError):
        (1 / (a - 1)).substitute({"a": 1})


def test_substitute_removable_singularity_is_fine():
    # canonical form cancels before evaluation
    f = (a**2 - 1) / (a - 1)
    assert f.substitute({"a": 1}).to_fraction() == 2


def test_series_examples():
    f = 5 * n**4 / a**3 + n**2 / a
    cs = f.series_coefficients("n", 4)
    assert cs == [rf(0), rf(0), 1 / a, rf(0), 5 / a**3]
    g = 1 / (1 - n)
    assert g.series_coefficients("n", 2) == [rf(1), rf(1), rf(1)]
    with pytest.raises(PoleError):
        (1 / n).series_coefficients("n", 1)


def test_limit_at_infinity():
    assert (3 / (1 + 2 * a)).limit_at_infinity("a") == 0
    assert ((2 * a + 1) / (a + 5)).limit_at_infinity("a") == 2
    assert (a**2 / (1 + a)).limit_at_infinity("a") == Infinity(1)
    assert ((-(a**2) + 1) / (1 + a)).limit_at_infinity("a") == Infinity(-1)
    assert (n * a / (1 + a)).limit_at_infinity("a") == n


def test_text_forms():
    assert (1 + 2 * a).text() == "1+2*a"
    assert (rf(3) / (1 + 2 * a)).text() == "3/(1+2*a)"
    assert ((1 + a) / (2 + a)).text() == "(1+a)/(2+a)"
    assert (-rf(3)).text() == "-3"
    assert (a * n**2).text() == "a*n^2"
    assert rf(0).text() == "0"
    assert (GAMMA * G1 * G2 * R).text() == "g*g1*g2*r"


def test_json_form():
    f = (1 + a) / (2 * n)
    assert f.to_json() == {"num": "1+a", "den": "2*n"}


def test_unknown_parameter():
    with pytest.raises(DomainError):
        param("x")
    with pytest.raises(DomainError):
        (1 + a).substitute({"x": 1})


_scalars = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.sampled_from([a, n, 1 + a, a - n, 2 * a + 1, n**2, a * n]),
    # integer content, equal denominators, denominators sharing a factor
    st.sampled_from(
        [a / (2 + 2 * n), 6 / (4 + 4 * a), (1 - a) / (2 + 2 * n), n / (1 + a), 1 / (a * n), (a - n) / (a + a * n)]
    ),
)


def _build(values):
    total = rf(0)
    for i, v in enumerate(values):
        total = total + v if i % 2 == 0 else total * v
    return total


@settings(max_examples=350, deadline=None)
@given(st.lists(_scalars, min_size=1, max_size=5), st.lists(_scalars, min_size=1, max_size=5), st.lists(_scalars, min_size=1, max_size=5))
def test_field_axioms(xs, ys, zs):
    f, g, h = _build(xs), _build(ys), _build(zs)
    assert (f + g) + h == f + (g + h)
    assert f * (g + h) == f * g + f * h
    assert f + g == g + f
    assert f * g == g * f
    if f != 0:
        assert f * (1 / f) == 1


@settings(max_examples=100, deadline=None)
@given(st.lists(_scalars, min_size=1, max_size=4), st.lists(_scalars, min_size=1, max_size=4))
def test_substitute_is_a_homomorphism(xs, ys):
    f, g = _build(xs), _build(ys)
    point = {"a": Fraction(2, 3), "n": 5}
    try:
        lhs = (f * g).substitute(point)
        rhs = f.substitute(point) * g.substitute(point)
    except PoleError:
        return
    assert lhs == rhs


@settings(max_examples=100, deadline=None)
@given(st.lists(_scalars, min_size=1, max_size=4), st.lists(_scalars, min_size=1, max_size=4))
def test_canonical_form_unique(xs, ys):
    f, g = _build(xs), _build(ys)
    # f == g iff cross-multiplied polynomials agree
    cross = _p_add(_p_mul(f.num, g.den), _p_neg(_p_mul(g.num, f.den)))
    assert (f == g) == (not cross)
    assert (f - g == 0) == (not cross)


def test_pow_and_hash():
    f = (1 + a) / n
    assert f**0 == 1
    assert f**3 == f * f * f
    assert f**-2 == 1 / (f * f)
    assert hash(f) == hash((1 + a) / n)
    d = {f: 1}
    assert d[(1 + a) / n] == 1


def test_constant_hashes_like_its_fraction():
    assert hash(rf(2)) == hash(Fraction(2)) == hash(2)
    assert hash(rf(Fraction(-3, 4))) == hash(Fraction(-3, 4))
    assert Fraction(2) in {rf(2): 1}
    # arithmetic can still produce constants
    f = (1 + a) / n
    assert {f / f: "one"}[Fraction(1)] == "one"


def test_as_exact_accepts_numbers_and_rational_functions():
    for value in (2, Fraction(2), rf(2), (1 + a) / (1 + a) * 2):
        got = rational.as_exact(value)
        assert type(got) is Fraction and got == 2
    f = (1 + a) / n
    assert rational.as_exact(f) is f


@pytest.mark.parametrize("value", [0.5, 2.0, True, "2", None])
def test_as_exact_rejects_everything_else(value):
    with pytest.raises(DomainError, match="alpha"):
        rational.as_exact(value, "alpha")


@pytest.mark.parametrize(
    "call",
    [
        lambda: binom.gsfact(1, 0.5, (2,)),
        lambda: orthopoly.laguerre(1, (2,), 0.5, 2),
        lambda: hypergeom.ghypergeom(1, [], [], ("xid", 0.5, 2), limit=5),
        lambda: jack.jack_identity_value(1, (2,), "C", 2.5),
        lambda: jack.jack_expand(True, (2,)),
        lambda: binom.sfact(0.5, 2),
        lambda: operators.apply_to_symexpr(jack.jack_expand(1, (2,), "C", 2), [(0.5, "E")], 1, 2),
        lambda: binom.sfact(3, True),
        lambda: binom.sfact(1, 2.5),
        lambda: partitions.upper_hook(0.5, (2, 1), 1, 1),
        lambda: partitions.lower_hook(0.5, (2, 1), 1, 1),
        lambda: jack.dstar_eigenvalue(1, (2,), 2.5),
    ],
    ids=[
        "gsfact", "laguerre", "ghypergeom", "jack_identity_value", "jack_expand", "sfact", "operator",
        "sfact-bool-order", "sfact-float-order", "upper_hook", "lower_hook", "dstar_eigenvalue",
    ],
)
def test_no_float_or_bool_enters_the_field(call):
    with pytest.raises(DomainError):
        call()


_ENSEMBLES = {
    "hermite": lambda n: expect.EnsembleSpec("hermite", 1, n),
    "laguerre": lambda n: expect.EnsembleSpec("laguerre", 1, n, g=0),
    "jacobi": lambda n: expect.EnsembleSpec("jacobi", 1, n, g1=0, g2=0),
}
_ORTHO = {
    "hermite": lambda n: orthopoly.hermite(1, (), n),
    "hermite2": lambda n: orthopoly.hermite2(1, (), n),
    "laguerre": lambda n: orthopoly.laguerre(1, (), 0, n),
    "jacobi": lambda n: orthopoly.jacobi(1, (), 0, 0, n),
}
_M1 = SymExpr("m", {(1,): 1}, 3)
_COUNTS = {
    "spec-jacobi-2.5": lambda: expect.expect_jack_c(_ENSEMBLES["jacobi"](2.5), (1,)),
    "spec-hermite-2.5": lambda: expect.expect_jack_c(_ENSEMBLES["hermite"](2.5), (2,)),
    "spec-bool": lambda: _ENSEMBLES["hermite"](True),
    "spec-str": lambda: _ENSEMBLES["hermite"]("3"),
    "jacobi-str": lambda: orthopoly.jacobi(1, (1,), 0, 0, "3"),
    "hermite-bool": lambda: orthopoly.hermite(1, (1, 1), True),
    "apply_dstar-str": lambda: jack.apply_dstar(_M1, 1, "3"),
    "apply_dstar-float": lambda: jack.apply_dstar(_M1, 1, 2.5),
    "apply_to_symexpr-float": lambda: operators.apply_to_symexpr(_M1, [(1, "E")], 1, 2.5),
    "mono_product-float": lambda: symfun.mono_product((1,), (1,), 2.5),
    "mono_product-bool": lambda: symfun.mono_product((1,), (1,), True),
    "partitions_of-float": lambda: partitions.partitions_of(2.0),
    "partitions_of-bool": lambda: partitions.partitions_of(True),
    "partitions_of-float-max_len": lambda: partitions.partitions_of(3, None, 1.5),
    "conjecture_coefficients-str": lambda: expect.conjecture_coefficients(1, "3"),
    "eval_at_scalar_identity-float": lambda: orthopoly.eval_at_scalar_identity(orthopoly.hermite(1, (1,), 2), 1, 2.0),
    "eval_at_scalar_identity-bool": lambda: orthopoly.eval_at_scalar_identity(orthopoly.hermite(1, (1,), 1), 1, True),
}
for _n in (0, -2):
    _COUNTS.update({"spec-%s-%d" % (name, _n): partial(build, _n) for name, build in _ENSEMBLES.items()})
    _COUNTS.update({"%s-%d" % (name, _n): partial(build, _n) for name, build in _ORTHO.items()})


@pytest.mark.parametrize("call", list(_COUNTS.values()), ids=list(_COUNTS))
def test_a_variable_count_is_generic_or_an_integer_in_range(call):
    # one check, symfun.as_nvars: no entry takes 2.5, True, "3" or too few variables
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("nvars", [1, 3, GENERIC], ids=repr)
def test_every_ensemble_has_mass_one(nvars):
    for build in _ENSEMBLES.values():
        assert expect.expect_jack_c(build(nvars), ()) == 1


@pytest.mark.parametrize(
    "call",
    [
        lambda: binom.mv_gamma(ALPHA, 2, 2),
        lambda: binom.mv_gamma(1, "2", 1),
        lambda: binom.mv_gamma(1, 2, True),
        lambda: binom.log_mv_gamma(1, float("nan"), 2),
        lambda: orthopoly.laguerre_hermite_limit_check(1, (1,), 1, [10], ["0.5"]),
        lambda: binom.mv_gamma(0, 1, 2),
        lambda: binom.mv_gamma(-1, 1, 2),
    ],
    ids=[
        "mv_gamma-symbolic", "mv_gamma-str", "mv_gamma-bool", "log_mv_gamma-nan", "limit_check-str",
        "mv_gamma-alpha-0", "mv_gamma-alpha-negative",
    ],
)
def test_a_float_entry_takes_only_finite_numbers(call):
    with pytest.raises(DomainError):
        call()


def test_float_entries_keep_finite_numbers_and_symbolic_n():
    assert binom.mv_gamma(Fraction(2), Fraction(3, 2), 1) == binom.mv_gamma(2.0, 1.5, 1)
    assert jack.dstar_eigenvalue(ALPHA, (2,), N) == 2 + 2 * (2 / ALPHA) * (N - 1)
    assert partitions.upper_hook(1, (2, 1), 1, 1) == 3


def test_constant_rational_functions_are_plain_numbers():
    for x in (0.5, 3.0):
        assert hypergeom.largest_eig_cdf(rf(1), rf(1), 2, x) == hypergeom.largest_eig_cdf(1, 1, 2, x)
    assert hypergeom.smallest_eig_mass(rf(1), 2, 2) == hypergeom.smallest_eig_mass(1, 2, 2)


def test_polynomial_gcd_white_box():
    from mops.rational import _p_gcd

    f = ((1 + a) * (2 + 3 * a * n)).num
    g = ((1 + a) * (a - n**2) * 2).num
    got = _p_gcd(f, g)
    assert got == (1 + a).num
    # coprime pair
    assert _p_gcd((1 + a).num, (2 + n).num) == rational._P_ONE
    # integer content
    assert _p_gcd((4 + 4 * a).num, (6 + 6 * a).num) == (2 + 2 * a).num


@pytest.mark.parametrize("p", [rf(1), rf(-6), rf(0), 3 + a * n, (2 + 2 * a) * (1 - n)], ids=repr)
def test_gcd_with_the_unit_is_the_unit(p):
    one = rf(1).num
    assert rational._p_gcd(p.num, one) == rational._p_gcd(one, p.num) == one
    assert rational._p_cofactors(p.num, one) == (one, p.num, one)
    assert rational._p_cofactors(one, p.num) == (one, one, p.num)


def test_trivial_gcds_take_no_gcd_algorithm():
    # zero, constant and equal operands are answered by _p_cofactors
    # itself, so every _prs_gcd call is a real pseudo-remainder sequence
    def refuse(p, q):
        raise AssertionError("a gcd algorithm ran on %r, %r" % (p, q))

    x = ((2 + 2 * a) * (1 - n)).num
    cases = [
        (rf(0).num, x, (_p_neg(x), {}, rf(-1).num)),
        (x, rf(0).num, (_p_neg(x), rf(-1).num, {})),
        (_p_neg(x), _p_neg(x), (_p_neg(x), rf(1).num, rf(1).num)),
        (x, x, (_p_neg(x), rf(-1).num, rf(-1).num)),
        (rf(6).num, x, (rf(2).num, rf(3).num, ((1 + a) * (1 - n)).num)),
        (x, rf(-5).num, (rf(1).num, x, rf(-5).num)),
        (rf(-4).num, rf(6).num, (rf(2).num, rf(-2).num, rf(3).num)),
    ]
    with mock.patch.object(rational, "_heugcd", refuse), mock.patch.object(rational, "_prs_gcd", refuse):
        for p, q, want in cases:
            assert rational._p_cofactors(p, q) == want, (p, q)
            assert rational._p_gcd(p, q) == want[0]


_LINEAR_ALPHAS = (a, 3 * a / 2, (2 * a + 1) / 3, -a, a**2, 1 / a, Fraction(2, 3), Fraction(-3, 2))


def _field_product(alpha, num_pairs, den_pairs, scale):
    value = rf(scale)
    for u, v in num_pairs:
        value = value * (u + alpha * v)
    for u, v in den_pairs:
        value = value / (u + alpha * v)
    return value


@pytest.mark.parametrize("alpha", _LINEAR_ALPHAS, ids=repr)
def test_linear_product_matches_the_field_product(alpha):
    # up to 8 factors u + alpha v on each side, u, v in [-3, 3], some of
    # them repeated and some shared between the two sides
    rng = random.Random(32)
    pool = [(u, v) for u in range(-3, 4) for v in range(-3, 4)]
    for _ in range(300):
        num = rng.choices(pool, k=rng.randint(0, 8))
        shared = rng.sample(num, rng.randint(0, len(num)))
        den = shared + rng.choices(pool, k=rng.randint(0, 8 - len(shared)))
        den = [(u, v) for u, v in den if u + alpha * v != 0]
        rng.shuffle(den)
        scale = rng.choice((1, -2, 6, Fraction(-5, 4)))
        want = _field_product(alpha, num, den, scale)
        pair = rational.linear_product(alpha, num, den, scale)
        got = ratio(*pair)
        assert got == want, (alpha, num, den, scale)
        if isinstance(alpha, Fraction):
            assert all(type(v) is int for v in pair)
            continue
        assert isinstance(got, RationalFunction) and pair[1] == 1
        assert got.text() == want.text()
        # canonical: coprime, the denominator's leading coefficient positive
        assert (got.num, got.den) == _canonicalize(got.num, got.den)
        assert rational._p_lead_coeff(got.den) > 0


def test_linear_product_zero_factors():
    assert rational.linear_product(a, [(2, 1), (0, 0)], [(1, 1)]) == (0, 1)
    assert rational.linear_product(Fraction(1, 2), [(1, 1)], [(1, -2), (3, 1)]) == (6, 0)
    with pytest.raises(DomainError):
        rational.linear_product(a, [(2, 1)], [(0, 0)])
    # alpha's pair from ``homogeneous`` works as alpha itself
    as_pair = rational.linear_product((2, 3), [(1, 1)], [(1, 2)], 4)
    assert as_pair == rational.linear_product(Fraction(2, 3), [(1, 1)], [(1, 2)], 4)


def test_factored_list_is_the_polynomial_at_a_bare_parameter():
    # at alpha a bare parameter the int list is the polynomial itself
    assert rational.factored(a, poly=[1, 0, 3]).to_field() == 1 + 3 * a**2
    assert rational.factored(n, poly=[0, 0]).to_field() == 0
    assert rational.factored(n, poly=[2, -1]).to_field().text() == (2 - n).text()
    for x in (2 * a, a + 1, a / 2, a * n):
        assert rational.factored(x, poly=[1, 1]).to_field() == 1 + x


_FACTORED_ALPHAS = (a, -a, 3 * a / 2, (2 * a + 1) / 3, a**2, 1 / a)


def _assert_canonical_equal(got, want):
    assert isinstance(got, RationalFunction)
    assert got == want and got.text() == want.text()
    # canonical: coprime, the denominator's leading coefficient positive
    assert (got.num, got.den) == _canonicalize(got.num, got.den)
    assert rational._p_lead_coeff(got.den) > 0


@pytest.mark.parametrize("alpha", _FACTORED_ALPHAS, ids=repr)
def test_factored_form_matches_the_field(alpha):
    # random products of linear factors u + alpha v and int lists in alpha,
    # their sums (held, then added up once), products by held sums,
    # quotients by values whose list is 1, and a field value with another
    # parameter, against the same expressions in the field
    rng = random.Random(34)
    pool = [(u, v) for u in range(-3, 4) for v in range(-3, 4) if (u, v) != (0, 0)]

    def value():
        num = rng.choices(pool, k=rng.randint(0, 4))
        den = rng.choices(pool, k=rng.randint(0, 4))
        poly = [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))] if rng.random() < 0.6 else [1]
        scale = rng.choice((1, -2, Fraction(3, 4)))
        want = _field_product(alpha, num, den, scale) * sum(c * alpha**i for i, c in enumerate(poly))
        return rational.factored(alpha, num, den, scale, poly), want, len(poly) == 1

    for _ in range(150):
        terms = [value() for _ in range(rng.randint(1, 4))]
        total = sum((f for f, _, _ in terms), 0)
        want = sum((w for _, w, _ in terms), rf(0))
        _assert_canonical_equal(rational.field_value(total), want)
        assert bool(total) == bool(want)
        f, w, _ = value()
        _assert_canonical_equal((f * sum((t for t, _, _ in terms), 0)).to_field(), w * want)
        _assert_canonical_equal((f - terms[0][0] * Fraction(2, 3)).to_field(), w - terms[0][1] * Fraction(2, 3))
        _assert_canonical_equal(n * f, n * w)
        for g, v, keys_only in terms:
            if v:
                _assert_canonical_equal(rational.field_value(f / g), w / v)
                _assert_canonical_equal(rational.field_value(Fraction(-5, 3) / g), Fraction(-5, 3) / v)
                if keys_only:
                    assert isinstance(f / g, rational.Factored)


def test_factored_sum_cancels_its_keys_below_by_their_roots():
    # 1/(1+a) + a/(1+a) = 1 and (a - 1)/(a + 1)^2 + 2/(a + 1)^2 = 1/(a + 1):
    # the sum vanishes at the root of each key that divides it
    one = rational.factored(a, (), [(1, 1)]) + rational.factored(a, [(0, 1)], [(1, 1)])
    assert one.settled().keys == {} and one.poly == (1,) and one.to_field() == 1
    x = rational.factored(a, [(-1, 1)], [(1, 1), (1, 1)]) + rational.factored(a, (), [(1, 1)] * 2, 2)
    assert x.settled().keys == {(1, 1): -1} and x.to_field() == 1 / (1 + a)
    # a product leaves the cancellation to the conversion
    y = rational.factored(a, (), [(2, 1)], 1, [2, 1]) * rational.factored(a, [(1, 3)])
    assert y.to_field() == 1 + 3 * a
    # 2 a + 3 as an int list becomes a key
    z = rational.factored(a, [(0, 2)]) + 3
    assert z.settled().keys == {(3, 2): 1} and z.num == 1


def test_alpha_only_products_take_no_gcd():
    # hooks, one-box ratios, the C and P factors and J's table at the bare
    # parameter a are built factor by factor, with no gcd; so are the
    # binomial table, the Hermite values and the sweep into the C basis at
    # an alpha affine in one parameter, each value converted once
    def refuse(*args):
        raise AssertionError("a gcd algorithm ran")

    kappas = [kappa for k in range(7) for kappa in partitions.partitions_of(k)]
    outer = (4, 3, 2, 1)
    steps = [
        (sigma, i)
        for sigma in partitions.subpartitions_of(outer)
        for i in range(1, len(sigma) + 2)
        if (grown := binom._row_increment(sigma, i)) is not None and partitions.is_subpartition(grown, outer)
    ]
    affine = (a, (2 * a + 1) / 3)
    m6 = SymExpr("m", {(6,): 1})
    tables = (
        (lambda alpha: binom.gbinomial_table(alpha, outer), lambda alpha: gbinomial_field(alpha, outer)),
        (lambda alpha: orthopoly._hermite_values(alpha, outer), lambda alpha: hermite_values_field(alpha, outer)),
        (lambda alpha: symfun.m2jack(alpha, m6).terms, lambda alpha: m2jack_field(alpha, (6,))),
    )
    cache.clear_all()
    want_j = jack.jack_expand(a, (4, 3, 1), "J").text()
    want_tables = [[field(alpha) for _, field in tables] for alpha in affine]
    cache.clear_all()
    with mock.patch.object(rational, "_p_cofactors", refuse), mock.patch.object(rational, "_heugcd", refuse):
        got_j = jack.jack_expand(a, (4, 3, 1), "J").text()
        got_steps = {step: binom.contiguous(a, *step) for step in steps}
        got_hooks = {kappa: partitions.hook_products(a, kappa) for kappa in kappas}
        got_factors = {(kappa, norm): jack._from_j(a, kappa, norm) for kappa in kappas for norm in "CP"}
        got_tables = [[table(alpha) for table, _ in tables] for alpha in affine]
    cache.clear_all()
    assert got_j == want_j
    for got, want in zip(got_tables, want_tables):
        for got_table, want_table in zip(got, want):
            assert got_table.keys() == want_table.keys()
            assert all(got_table[key] == want_table[key] for key in want_table)
    assert len(steps) == 84
    for (sigma, i), got in got_steps.items():
        assert got.text() == contiguous_all_boxes(a, sigma, i).text()
    for kappa in kappas:
        c, cprime, j = hook_products_field(a, kappa)
        assert [v.text() for v in got_hooks[kappa]] == [c.text(), cprime.text(), j.text()]
        k = partitions.weight(kappa)
        assert got_factors[kappa, "C"].text() == (a**k * math.factorial(k) / j).text()
        assert got_factors[kappa, "P"].text() == (1 / cprime).text()


def test_an_int_leading_coefficient_apart_gives_the_content_gcd():
    # a product of factors of degree 1 in n shares no factor with a
    # polynomial in a alone: the gcd is the int gcd of the contents
    box = ((n + 2 * a - 1) * (n - 3) * (2 * n + a)).num
    hooks = (4 * (1 + a) * (2 + 3 * a) * a).num
    scaled = {e: 6 * c for e, c in box.items()}

    def refuse(*args):
        raise AssertionError("the gcd evaluated a variable")

    with mock.patch.object(rational, "_p_eval_var", refuse):
        want = (rf(2).num, {e: 3 * c for e, c in box.items()}, (2 * (1 + a) * (2 + 3 * a) * a).num)
        assert rational._p_cofactors(scaled, hooks) == want
        assert rational._p_cofactors(hooks, box) == (rf(1).num, hooks, box)
    # n^2 has the coefficient a: no shortcut, and the common factor is found
    shared = ((1 + a) * (a * n**2 + 1)).num
    assert rational._p_gcd(shared, hooks) == (1 + a).num


def _assert_henrici_canonical(f, g):
    """+, -, * and / give the canonical form of the unreduced cross products."""
    n1, d1, n2, d2 = f.num, f.den, g.num, g.den
    cases = [
        (f + g, _p_add(_p_mul(n1, d2), _p_mul(n2, d1)), _p_mul(d1, d2)),
        (f - g, _p_add(_p_mul(n1, d2), _p_neg(_p_mul(n2, d1))), _p_mul(d1, d2)),
        (f * g, _p_mul(n1, n2), _p_mul(d1, d2)),
    ]
    if g:
        cases.append((f / g, _p_mul(n1, d2), _p_mul(d1, n2)))
    for got, num, den in cases:
        assert (got.num, got.den) == _canonicalize(num, den)


@pytest.mark.parametrize(
    "f, g",
    [
        (a / (2 + 2 * n), 6 / (4 + 4 * a)),
        (a / (2 + 2 * n), (1 - a) / (2 + 2 * n)),
        (a / (2 + 2 * n), (2 - a) / (2 + 2 * n)),
        (a / (1 + a), 1 / (1 + a)),
        ((1 + a) / (a * n), (a - n) / (a + a * n)),
        (n / (1 + a), -n / (1 + a)),
        (6 / (4 + 4 * a), rf(3)),
        (a, -a),
        (rf(0), a / (2 + 2 * n)),
    ],
)
def test_henrici_examples_are_canonical(f, g):
    _assert_henrici_canonical(f, g)
    _assert_henrici_canonical(g, f)


@settings(max_examples=200, deadline=None)
@given(st.lists(_scalars, min_size=1, max_size=4), st.lists(_scalars, min_size=1, max_size=4))
def test_henrici_paths_are_canonical(xs, ys):
    f, g = _build(xs), _build(ys)
    _assert_henrici_canonical(f, g)
    assert f - f == 0 and (f + (-f)).den == rational._P_ONE


def test_inverse_keeps_the_canonical_form():
    inv = ((1 - a) / (2 + 2 * n)).inverse()
    assert (inv.num, inv.den) == _canonicalize((2 + 2 * n).num, (1 - a).num)
    assert (inv.num, inv.den) == ((-2 - 2 * n).num, (a - 1).num)
    with pytest.raises(DomainError):
        rf(0).inverse()


@st.composite
def _gcd_triples(draw):
    """Integer polynomials g, u, v in up to 4 parameters, degree <= 3 each."""
    active = draw(st.lists(st.integers(0, NPARAMS - 1), min_size=1, max_size=4, unique=True))

    def monomial(picks):
        return rational._pack(tuple(picks.count(i) for i in range(NPARAMS)))

    poly = st.dictionaries(
        st.lists(st.sampled_from(active), max_size=3).map(monomial),
        st.integers(-(10**4), 10**4).filter(bool),
        min_size=1,
        max_size=4,
    )
    return draw(poly), draw(poly), draw(poly)


def _sympy_gcd(p, q):
    """The gcd of two packed polynomials by sympy, positive leading coefficient."""
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols(PARAMS)
    sp, sq = (sympy.Poly.from_dict({rational._unpack(e): c for e, c in w.items()}, *syms) for w in (p, q))
    return _p_positive({rational._pack(e): int(c) for e, c in sympy.gcd(sp, sq).as_dict().items()})


def _check_gcd_against_sympy(triple):
    g, u, v = triple
    p, q = _p_mul(g, u), _p_mul(g, v)
    want = _sympy_gcd(p, q)
    assert rational._p_gcd(p, q) == want
    _check_cofactors(p, q, want)


def _check_cofactors(p, q, want):
    g, p_g, q_g = rational._p_cofactors(p, q)
    assert g == want
    assert _p_mul(g, p_g) == p and _p_mul(g, q_g) == q


@settings(max_examples=150, deadline=None)
@given(_gcd_triples())
def test_gcd_matches_sympy(triple):
    _check_gcd_against_sympy(triple)


@settings(max_examples=60, deadline=None)
@given(_gcd_triples())
def test_prs_fallback_matches_sympy(triple):
    # with the heuristic giving up, every gcd, contents included, is a PRS,
    # and the cofactors are the PRS gcd's quotients
    with mock.patch.object(rational, "_heugcd", lambda p, q: None):
        _check_gcd_against_sympy(triple)


def test_prs_fallback_takes_seconds_not_minutes():
    # the content gcds go through the heuristic: a primitive PRS all the
    # way down ran for more than 100 s on this pair
    g = (3 + a * n + 2 * G1 - G2 * a) ** 2
    u = (1 + a + n + G1 + G2) ** 3 * (5 - a * G2)
    v = (2 + a - n * G1 + 7 * G2) ** 3 * (1 + n * G2)
    start = time.perf_counter()
    assert rational._prs_gcd((g * u).num, (g * v).num) == g.num
    assert time.perf_counter() - start < 10.0


def _reference_gcd(p, q):
    """The gcd by a real PRS, or by its definition where an operand is 0 or a constant."""
    if not p or not q:
        return _p_positive(p or q)
    if rational._p_is_const(p) or rational._p_is_const(q):
        return rational._p_const(math.gcd(*p.values(), *q.values()))
    return rational._prs_gcd(p, q)


def test_generic_laguerre_gcds_match_prs(monkeypatch):
    gcd, cofactors = rational._p_gcd, rational._p_cofactors
    calls = []

    def checked_gcd(p, q):
        got = gcd(p, q)
        assert got == _reference_gcd(p, q), (p, q)
        return got

    def checked_cofactors(p, q):
        got = cofactors(p, q)
        g, p_g, q_g = got
        assert g == _reference_gcd(p, q), (p, q)
        assert _p_mul(g, p_g) == p and _p_mul(g, q_g) == q, (p, q)
        calls.append(g)
        return got

    monkeypatch.setattr(rational, "_p_gcd", checked_gcd)
    monkeypatch.setattr(rational, "_p_cofactors", checked_cofactors)
    cache.clear_all()
    orthopoly.laguerre(ALPHA, (3,), GAMMA, GENERIC)
    assert len(calls) > 100


def test_heuristic_gcd_in_four_parameters():
    # the images of degree-7 inputs need an evaluation point of about 7000
    # bits at the fourth parameter; the heuristic must not give up there,
    # as the pseudo-remainder fallback takes minutes on such a pair
    g = (1 + a + 2 * n + 3 * G1 + 5 * G2) ** 5
    u = (a * n * G1 * G2 + 3) ** 2 + a**3
    v = (a * n * G1 - G2 + 7) ** 2 + n
    assert rational._heugcd((g * u).num, (g * v).num) == (g.num, u.num, v.num)


@st.composite
def _one_variable_triples(draw, var):
    """Integer polynomials g, u, v in the one parameter var, degree <= 6."""
    unit = rational._UNIT[var]
    poly = st.dictionaries(
        st.integers(0, 6).map(lambda d: d * unit), st.integers(-(10**4), 10**4).filter(bool), min_size=1, max_size=5
    )
    return draw(poly), draw(poly), draw(poly)


@pytest.mark.parametrize("var", range(NPARAMS), ids=PARAMS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_variable_cofactors_match_sympy(var, data):
    # the dense path: every gcd of these pairs runs on coefficient lists
    _check_gcd_against_sympy(data.draw(_one_variable_triples(var)))


@pytest.mark.parametrize("var", range(NPARAMS), ids=PARAMS)
@settings(max_examples=20, deadline=None)
@given(data=st.data(), c=st.integers(-(10**6), 10**6).filter(bool))
def test_constant_and_one_variable_cofactors_match_sympy(var, data, c):
    p = data.draw(_one_variable_triples(var))[0]
    const = rational._p_const(c)
    want = _sympy_gcd(const, p)
    for x, y in ((const, p), (p, const)):
        _check_cofactors(x, y, want)
        g, x_g, y_g = rational._heugcd(x, y)
        assert g == want and _p_mul(g, x_g) == x and _p_mul(g, y_g) == y


@st.composite
def _exponents(draw):
    """Exponent tuples of a total degree up to the packed field's largest."""
    total = draw(st.one_of(st.integers(0, 8), st.integers(0, rational._DEG_MAX)))
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=NPARAMS - 1, max_size=NPARAMS - 1)))
    return tuple(hi - lo for lo, hi in zip([0, *cuts], [*cuts, total]))


@settings(max_examples=300, deadline=None)
@given(_exponents(), _exponents())
def test_packed_exponents_keep_order_and_divisibility(x, y):
    px, py = rational._pack(x), rational._pack(y)
    assert rational._unpack(px) == x and rational._unpack(py) == y
    # int order is graded lex order
    assert (px < py) == ((sum(x), x) < (sum(y), y))
    # the guard-bit test of exact division is the componentwise one
    quotient = rational._p_quotient({px: 3}, {py: 1})
    if all(i >= j for i, j in zip(x, y)):
        assert quotient == {rational._pack(tuple(i - j for i, j in zip(x, y))): 3}
    else:
        assert quotient is None
    # a product is the sum of the ints while the total degree fits
    if sum(x) + sum(y) <= rational._DEG_MAX:
        assert _p_mul({px: 2}, {py: 5}) == {rational._pack(tuple(i + j for i, j in zip(x, y))): 10}
    else:
        with pytest.raises(DomainError, match="degree"):
            _p_mul({px: 2}, {py: 5})


def test_degree_past_the_packed_field_raises():
    top = rational._DEG_MAX
    assert (a**top).text() == "a^%d" % top
    assert (a ** (top - 1) * n).text() == "a^%d*n" % (top - 1)
    for make in (lambda: a**40000, lambda: a ** (top + 1), lambda: a**top * n, lambda: 1 / (a ** (top - 1) * (1 + n) ** 2)):
        with pytest.raises(DomainError, match="degree"):
            make()
    with pytest.raises(DomainError, match="degree"):
        rational._v_shift((a**top).num, 1, 1)
    with pytest.raises(DomainError, match="degree"):
        rational._pack((top, 0, 0, 0, 0, 1))


def test_to_float_rounds_exactly_once():
    # in the normal range the value is float() of the exact number
    for value in (Fraction(1, 3), Fraction(-10**40, 7), Fraction(2**1023 * 3, 2), 5, Fraction(0)):
        assert rational.to_float(value) == float(value)
    # an unreduced pair stands for its ratio
    assert rational.to_float((6, 4)) == 1.5
    # past the range it refuses, below it reads 0
    with pytest.raises(DomainError, match="float range"):
        rational.to_float(Fraction(10) ** 309)
    assert rational.to_float(Fraction(1, 10**400)) == 0.0


def test_to_float_weight_outside_the_float_range():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        # 10^400 e^-1000: neither factor is a float, the product is
        for value, weight in [(Fraction(10) ** 400, -1000.0), (Fraction(1, 10**350), 750.0), (Fraction(7, 3), -3.5)]:
            got = rational.to_float(value, weight)
            want = mpmath.mpf(value.numerator) / value.denominator * mpmath.exp(weight)
            assert abs(got / want - 1) < 4e-16
    assert rational.to_float(Fraction(1), -1e6) == 0.0
    # the range is decided before the weight is folded into the exponent
    assert rational.to_float(1, -1e30) == rational.to_float(1, -math.inf) == 0.0
    assert rational.to_float(0, 1e30) == rational.to_float(Fraction(0), 800.0) == 0.0
    for weight in (1e30, math.inf):
        with pytest.raises(DomainError, match="float range"):
            rational.to_float(1, weight)
    # a fold past 2^21 carries the weight's own rounding, of order |w| 2^-53
    twos = 3 * 10**6
    got = rational.to_float(2**twos, 1.0 - twos * math.log(2))
    assert abs(got / math.e - 1) < 1e-9
    with pytest.raises(DomainError, match="float range"):
        rational.to_float(Fraction(1), 710.0)
    assert math.isfinite(rational.to_float(Fraction(1), 709.0))


def test_read_int_takes_only_ascii_decimal_numerals():
    for text, want in [("0", 0), ("42", 42), (" 7 ", 7), ("-3", -3), ("\t12\n", 12)]:
        value = rational.read_int(text, "n")
        assert value == want and type(value) is int
    # int() takes each of these; a superscript two passes str.isdigit
    for text in ("1_0", "+3", "²", "٣", "１", "1.0", "", "-", "3 4", "0x1", 3, None):
        with pytest.raises(DomainError, match="n must be a decimal integer"):
            rational.read_int(text, "n")


def test_read_real_takes_only_ascii_decimal_numerals():
    for text, want in [("0", 0.0), ("-2.5", -2.5), (" 1e-05 ", 1e-05), (".5", 0.5), ("3.", 3.0), ("1E+3", 1000.0)]:
        value = rational.read_real(text, "x")
        assert value == want and type(value) is float
    # the range is the caller's: repr's words read as themselves
    assert math.isinf(rational.read_real("-inf", "x")) and math.isnan(rational.read_real("nan", "x"))
    # float() takes each of these
    for text in ("0.1_5", "1_0", "+3", "١", "１", "1e٣", "Infinity", "NaN", "", ".", "-", "e5", "1/2", 3.0, None):
        with pytest.raises(DomainError, match="x must be a decimal number"):
            rational.read_real(text, "x")
