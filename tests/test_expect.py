import math
import random
from fractions import Fraction

import pytest
import scipy.integrate as si

from mops import expect as ex
from mops import jack, orthopoly, symfun
from mops.errors import DomainError, PoleError, UnsupportedModeError
from mops.partitions import partitions_of
from mops.rational import ALPHA, N, field_value, rf
from mops.symfun import GENERIC, Leaf, Pow, Prod, Scalar, Sum, SymExpr

from oracles import hermite_expect_2vars

a = ALPHA


def test_hermite_odd_weight_is_zero():
    spec = ex.EnsembleSpec("hermite", a, GENERIC)
    assert ex.expect_jack_c(spec, (1,)) == 0
    for k in (1, 3, 5, 7):
        for kap in partitions_of(k):
            assert ex.expect_jack_c(spec, kap) == 0


def test_hermite_c2_against_rotation_oracle():
    spec = ex.EnsembleSpec("hermite", a, GENERIC)
    val = ex.expect_jack_c(spec, (2,))
    assert val == N * (N + a) / (1 + a)
    # the independent two-variable oracle pins the n=2 slice
    cexp = jack.jack_expand(a, (2,), "C", 2)
    assert val.substitute({"n": 2}) == hermite_expect_2vars(cexp.terms, a)


def test_laguerre_moments_univariate():
    # E[x^k] = (gamma+1)_k at n = 1
    from mops.binom import sfact
    from mops.rational import GAMMA

    spec = ex.EnsembleSpec("laguerre", a, 1, g=GAMMA)
    for k in range(1, 7):
        got = ex.expect_jack_c(spec, (k,))
        assert got == sfact(GAMMA + 1, k)


def test_worked_example():
    spec = ex.EnsembleSpec("hermite", a, 3)
    val = ex.expect_jack_expr(spec, Prod([Leaf("J", (2, 1)), Leaf("C", (1, 1, 1))]))
    assert val == -36 * (a - 1) * (a + 3) / ((1 + a) * (2 + a))


def test_determinant_moment_and_duality():
    spec = ex.EnsembleSpec("hermite", a, 5)
    val = ex.expect_jack_c(spec, (2,) * 5) / jack.jack_identity_value(a, (2,) * 5, "C", 5)
    poly = a**4 + 10 * a**3 + 45 * a**2 + 80 * a + 89
    assert val == poly / a**4
    dual = ex.EnsembleSpec("hermite", 1 / a, 2)
    val2 = ex.expect_jack_c(dual, (5, 5)) / jack.jack_identity_value(1 / a, (5, 5), "C", 2)
    assert val2 == -a * poly


def test_trace_power_six():
    spec = ex.EnsembleSpec("hermite", a, GENERIC)
    f = ex.expect_monomial_expr(spec, SymExpr("m", {(6,): 1}))
    cs = f.series_coefficients("n", 4)
    assert cs[0] == 0
    assert cs[1] == (15 * a**3 - 32 * a**2 + 32 * a - 15) / a**3
    assert cs[2] == (32 * a**2 - 54 * a + 32) / a**3
    assert cs[3] == (22 * a - 22) / a**3
    assert cs[4] == rf(5) / a**3
    assert f.substitute({"a": 1}) == 5 * N**4 + 10 * N**2


def test_expect_m2_generic():
    spec = ex.EnsembleSpec("hermite", a, GENERIC)
    f = ex.expect_monomial_expr(spec, SymExpr("m", {(2,): 1}))
    assert f == N + N * (N - 1) / a
    assert f.substitute({"n": 1}) == 1  # univariate second moment
    # n = 2 slice against the rotation oracle
    assert f.substitute({"n": 2}) == hermite_expect_2vars({(2,): 1}, a)


def test_monomial_over_laguerre_univariate_mean():
    from mops.rational import GAMMA

    spec = ex.EnsembleSpec("laguerre", a, 1, g=GAMMA)
    val = ex.expect_monomial_expr(spec, SymExpr("m", {(1,): 1}))
    assert val == GAMMA + 1


def test_linearity():
    rng = random.Random(7)
    spec = ex.EnsembleSpec("hermite", a, 3)
    parts = [p for k in (2, 4) for p in partitions_of(k) if len(p) <= 3]
    for _ in range(5):
        f = rng.choice(parts)
        g = rng.choice(parts)
        c1, c2 = rng.randint(-3, 3), rng.randint(-3, 3)
        combined = ex.expect_jack_expr(
            spec,
            Sum(
                [
                    Prod([Scalar(rf(c1)), Leaf("C", f)]),
                    Prod([Scalar(rf(c2)), Leaf("C", g)]),
                ]
            ),
        )
        assert combined == c1 * ex.expect_jack_c(spec, f) + c2 * ex.expect_jack_c(spec, g)


def test_odd_monomial_expressions_vanish():
    spec = ex.EnsembleSpec("hermite", a, 3)
    for tree in [
        SymExpr("m", {(3,): 1, (2, 1): 1}),
        Prod([Leaf("m", (2, 2)), Leaf("m", (1,))]),
        Prod([Leaf("m", (3, 1)), Leaf("m", (2, 1))]),
    ]:
        assert ex.expect_monomial_expr(spec, tree) == 0


def test_generic_products_rejected():
    spec = ex.EnsembleSpec("hermite", a, GENERIC)
    m1, m2 = Leaf("m", (1,)), Leaf("m", (2,))
    with pytest.raises(UnsupportedModeError):
        ex.expect_monomial_expr(spec, Prod([m1, m1]))
    with pytest.raises(UnsupportedModeError):
        ex.expect_jack_expr(spec, Pow(Leaf("C", (1,)), 2))
    # a power of a sum or of a scaled element multiplies basis elements too,
    # and at a numeric count it is the product it stands for
    for base in (Sum([m1, m2]), Prod([Scalar(rf(2)), m1])):
        with pytest.raises(UnsupportedModeError):
            ex.expect_monomial_expr(spec, Pow(base, 2))
        numeric = ex.EnsembleSpec("hermite", a, 3)
        assert ex.expect_monomial_expr(numeric, Pow(base, 2)) == ex.expect_monomial_expr(
            numeric, Prod([base, base])
        )


def test_univariate_triad_quadrature():
    # n = 1 moments against direct numeric quadrature to 1e-10
    from mops.binom import sfact

    gamma_val = Fraction(3, 2)
    g1_val, g2_val = Fraction(1, 2), Fraction(2)
    spec_h = ex.EnsembleSpec("hermite", Fraction(1), 1)
    spec_l = ex.EnsembleSpec("laguerre", Fraction(1), 1, g=gamma_val)
    spec_j = ex.EnsembleSpec("jacobi", Fraction(1), 1, g1=g1_val, g2=g2_val)

    def h_weight(x):
        return math.exp(-x * x / 2)

    def l_weight(x):
        return x ** float(gamma_val) * math.exp(-x)

    def j_weight(x):
        return x ** float(g1_val) * (1 - x) ** float(g2_val)

    zh, _ = si.quad(h_weight, -math.inf, math.inf)
    zl, _ = si.quad(l_weight, 0, math.inf)
    zj, _ = si.quad(j_weight, 0, 1)
    for k in range(1, 7):
        got_h = float(ex.expect_jack_c(spec_h, (k,)))
        want_h, _ = si.quad(lambda x: x**k * h_weight(x), -math.inf, math.inf)
        assert abs(got_h - want_h / zh) < 1e-10
        # double factorial for even k
        if k % 2 == 0:
            dfact = 1
            for t in range(1, k, 2):
                dfact *= t
            assert got_h == dfact
        got_l = float(ex.expect_jack_c(spec_l, (k,)))
        want_l, _ = si.quad(lambda x: x**k * l_weight(x), 0, math.inf)
        assert abs(got_l - want_l / zl) < 1e-9 * max(1.0, got_l)
        assert Fraction(ex.expect_jack_c(spec_l, (k,))) == Fraction(
            sfact(gamma_val + 1, k)
        )
        got_j = float(ex.expect_jack_c(spec_j, (k,)))
        want_j, _ = si.quad(lambda x: x**k * j_weight(x), 0, 1)
        assert abs(got_j - want_j / zj) < 1e-10
        want_formula = sfact(g1_val + 1, k) / sfact(g1_val + g2_val + 2, k)
        assert Fraction(ex.expect_jack_c(spec_j, (k,))) == want_formula


def test_expect_consistency_both_hermite_constructions():
    from mops import orthopoly as op

    spec = ex.EnsembleSpec("hermite", a, GENERIC)
    for k in (2, 4):
        for kap in partitions_of(k):
            e1 = op.eval_at_zero(op.hermite(a, kap, GENERIC))
            e2 = op.eval_at_zero(op.hermite2(a, kap, GENERIC))
            sign = -1 if (k // 2) % 2 else 1
            assert ex.expect_jack_c(spec, kap) == sign * e1 == sign * e2


def test_hermite_expectation_builds_no_expansion(monkeypatch):
    from mops import orthopoly as op

    def refuse(*args):
        raise AssertionError("whole Hermite expansion built")

    for name in ("hermite", "hermite2", "_hermite_values"):
        monkeypatch.setattr(op, name, refuse)
    spec = ex.EnsembleSpec("hermite", a, GENERIC)
    assert ex.expect_jack_c(spec, (2,)) == N * (N + a) / (1 + a)
    spec = ex.EnsembleSpec("hermite", a, 5)
    val = ex.expect_jack_c(spec, (2,) * 5) / jack.jack_identity_value(a, (2,) * 5, "C", 5)
    assert val == (a**4 + 10 * a**3 + 45 * a**2 + 80 * a + 89) / a**4


@pytest.mark.parametrize("alpha", [a, (2 * a + 1) / 3, 1, Fraction(3, 2), Fraction(1, 2)], ids=repr)
def test_hermite_constants_match_the_downward_pass(alpha):
    # one upward pass per weight gives v_() of every kappa of that weight
    for k in (2, 4, 6, 8):
        kappas = list(partitions_of(k))
        got = orthopoly._hermite_constants(alpha, kappas)
        assert got.keys() == set(kappas)
        for kappa in kappas:
            assert field_value(got[kappa]) == field_value(orthopoly._hermite_values(alpha, kappa)[()]), kappa


def _per_kappa(spec, terms):
    """sum f E[C_kappa] the old way: v_() from the downward pass, one term at a time."""
    total = 0
    m = N if spec.nvars is GENERIC else Fraction(spec.nvars)
    for kappa, f in terms.items():
        k = sum(kappa)
        if k % 2 == 0:
            v = orthopoly._hermite_values(spec.alpha, kappa)[()]
            total = total + f * (-1) ** (k // 2) * orthopoly._identity_ratio(spec.alpha, kappa, (), m, v)
    return total


def test_hermite_pole_at_negative_alpha():
    # at alpha = -2/3 some kappa of weight 6 divide by a vanishing hook
    # product: E[m_6] raises, and so does each such E[C_kappa] by both
    # routes; an expansion whose kappas avoid the pole returns the per-kappa
    # value
    alpha = Fraction(-2, 3)
    for nvars in (GENERIC, 4):
        spec = ex.EnsembleSpec("hermite", alpha, nvars)
        with pytest.raises(PoleError):
            ex.expect_monomial_expr(spec, SymExpr("m", {(6,): 1}))
        poles = set()
        for kappa in partitions_of(6):
            try:
                want = _per_kappa(spec, {kappa: 1})
            except PoleError:
                poles.add(kappa)
                with pytest.raises(PoleError):
                    ex.expect_jack_c(spec, kappa)
                with pytest.raises(PoleError):
                    ex._expect_c_basis(spec, {(2,): 1, kappa: 1, (4,): 1})
            else:
                assert ex.expect_jack_c(spec, kappa) == want
        assert poles and poles < set(partitions_of(6))
        clear = {kappa: Fraction(i + 1, 7) for i, kappa in enumerate(partitions_of(6)) if kappa not in poles}
        clear.update({(2,): Fraction(3, 7), (3,): 5, (2, 2): -1})
        got = ex._expect_c_basis(spec, clear)
        assert got == _per_kappa(spec, clear) and got != 0


@pytest.mark.parametrize("nvars", [GENERIC, 3])
def test_mixed_weights_and_a_symbolic_scalar(nvars):
    # weights 2, 3 and 4, a J leaf and a user's symbolic scalar: the one
    # converted sum equals the per-kappa expectations added in the field
    tree = Sum([Prod([Scalar(a + 1), Leaf("C", (2,))]), Leaf("J", (2, 1)), Leaf("C", (4,)), Leaf("C", (2, 2))])
    spec = ex.EnsembleSpec("hermite", a, nvars)
    terms = symfun.jack2jack(a, tree, nvars).terms
    assert {sum(kappa) for kappa in terms} == {2, 3, 4}
    want = 0
    for kappa, f in terms.items():
        want = want + f * ex.expect_jack_c(spec, kappa)
    got = ex.expect_jack_expr(spec, tree)
    assert got == want and got == _per_kappa(spec, terms)


def test_hermite_zero_is_typed():
    for nvars in (GENERIC, 3):
        spec = ex.EnsembleSpec("hermite", 1, nvars)
        for kap in ((3, 2, 1), (2, 1)):
            val = ex.expect_jack_c(spec, kap)
            assert val == 0 and repr(val) == repr(Fraction(0))


def test_gue_trace_moments_harer_zagier():
    # at alpha = 1, E[tr X^(2p)] = b_p with b_0 = n, b_1 = n^2 and
    # (p+1) b_p = (4p-2) n b_(p-1) + (p-1)(2p-1)(2p-3) b_(p-2)
    b = [N, N**2]
    for p in range(2, 6):
        b.append(((4 * p - 2) * N * b[p - 1] + (p - 1) * (2 * p - 1) * (2 * p - 3) * b[p - 2]) / (p + 1))
    assert b[5] == 42 * N**6 + 420 * N**4 + 483 * N**2
    spec = ex.EnsembleSpec("hermite", 1, GENERIC)
    for p in range(1, 6):
        assert ex.expect_monomial_expr(spec, SymExpr("m", {(2 * p,): 1})) == b[p]


def test_conjecture_report():
    rep = ex.conjecture_coefficients(a, 1)
    assert rep == [
        {"partition": (1,), "coefficient": rf(1), "n": 1, "conforming": True}
    ]
    rep = ex.conjecture_coefficients(a, 2)
    by_part = {e["partition"]: e for e in rep}
    assert by_part[(1, 1)]["coefficient"] == -1 / a
    assert by_part[(1, 1)]["n"] == 1
    for k in range(1, 7):
        for entry in ex.conjecture_coefficients(a, k):
            assert entry["conforming"], entry
            assert entry["n"] != 0


def test_domain_checks():
    with pytest.raises(DomainError):
        ex.EnsembleSpec("laguerre", a, 1, g=Fraction(-3, 2))
    with pytest.raises(DomainError):
        ex.EnsembleSpec("wishart", a, 1)


@pytest.mark.parametrize(
    "family, params, missing",
    [("laguerre", {}, "g"), ("jacobi", {"g1": 1}, "g2"), ("jacobi", {"g2": 1}, "g1")],
)
def test_missing_weight_parameter_is_a_domain_error(family, params, missing):
    with pytest.raises(DomainError, match="needs the parameter %s$" % missing):
        ex.EnsembleSpec(family, 1, 2, **params)


def test_conjecture_cap():
    # the bound is a module constant; k = 9, past the old default, conforms
    assert ex.CONJECTURE_CAP == 12
    with pytest.raises(DomainError, match="exceeds the cap 12"):
        ex.conjecture_coefficients(a, 13)
    assert all(entry["conforming"] for entry in ex.conjecture_coefficients(a, 9))


def test_random_products_against_rotation_oracle():
    # whole-pipeline check at n = 2: jack tables -> monomial products ->
    # triangular sweep -> Hermite constant term, against direct
    # integration in rotated coordinates, symbolic alpha
    from mops.symfun import expand_to_monomials

    spec = ex.EnsembleSpec("hermite", a, 2)
    cases = [
        Prod([Leaf("C", (1,)), Leaf("C", (1,))]),
        Prod([Leaf("C", (2,)), Leaf("C", (1, 1))]),
        Prod([Leaf("C", (2,)), Leaf("C", (2,))]),
        Prod([Leaf("J", (1, 1)), Leaf("P", (2,))]),
        Pow(Leaf("P", (2,)), 2),
        Prod([Leaf("J", (2, 1)), Leaf("C", (1,))]),
        Sum([Pow(Leaf("C", (1,)), 4), Prod([Scalar(rf(3)), Leaf("C", (2, 2))])]),
    ]
    for tree in cases:
        got = ex.expect_jack_expr(spec, tree)
        mono = expand_to_monomials(a, tree, 2)
        want = hermite_expect_2vars(mono.terms, a)
        assert got == want, tree
