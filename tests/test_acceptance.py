"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Stated time budgets are asserted except where a
criterion is explicitly recorded-only.
"""

import math
import time
from fractions import Fraction

import pytest
import scipy.integrate as si

from mops import binom, expect, hypergeom, jack, orthopoly, partitions, symfun
from mops.partitions import partitions_of
from mops.rational import ALPHA, N, rf
from mops.symfun import GENERIC, Leaf, Prod, SymExpr

from oracles import (
    gbinomial_from_definition,
    hermite_moments,
    jacobi_moments,
    laguerre_moments,
    monic_orthogonal,
)

a = ALPHA


class _Timer:
    def __init__(self, budget, label):
        self.budget = budget
        self.label = label

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.monotonic() - self.start
        if exc_type is None:
            print("PASS %s (%.2fs, budget %.0fs)" % (self.label, self.elapsed, self.budget))
            assert self.elapsed < self.budget, "over time budget"
        else:
            print("FAIL %s (%.2fs)" % (self.label, self.elapsed))
        return False


def test_01_jack_table():
    from test_jack import J_TABLE

    with _Timer(5, "criterion 1: Jack J-expansion table, k = 1..4, exact"):
        for kappa, expected in J_TABLE.items():
            got = jack.jack_expand(a, kappa, "J", GENERIC)
            assert got.terms == expected, kappa


def test_02_installation_check():
    with _Timer(1, "criterion 2: P-normalized [3] in 2 vars, byte-exact"):
        text = jack.jack_expand(a, (3,), "P", 2).text()
        assert text == "m[3] + 3/(1+2*a)*m[2,1]"


def test_03_worked_example():
    with _Timer(10, "criterion 3: jack2jack product and its Hermite expectation"):
        z = symfun.jack2jack(a, Prod([Leaf("J", (2, 1)), Leaf("C", (1, 1, 1))]), 3)
        expected = (Fraction(1, 120) * (2 + 3 * a) * (1 + 2 * a) ** 2) / (a * (1 + a))
        assert z.terms == {(3, 2, 1): expected}
        spec = expect.EnsembleSpec("hermite", a, 3)
        val = expect.expect_jack_expr(spec, Prod([Leaf("J", (2, 1)), Leaf("C", (1, 1, 1))]))
        assert val == -36 * (a - 1) * (a + 3) / ((1 + a) * (2 + a))


def test_04_determinant_moments():
    with _Timer(120, "criterion 4: determinant moments and alpha-duality, exact"):
        poly = a**4 + 10 * a**3 + 45 * a**2 + 80 * a + 89
        spec = expect.EnsembleSpec("hermite", a, 5)
        val = expect.expect_jack_c(spec, (2,) * 5) / jack.jack_identity_value(
            a, (2,) * 5, "C", 5
        )
        assert val == poly / a**4
        dual = expect.EnsembleSpec("hermite", 1 / a, 2)
        val2 = expect.expect_jack_c(dual, (5, 5)) / jack.jack_identity_value(
            1 / a, (5, 5), "C", 2
        )
        assert val2 == -a * poly


def test_05_trace_powers():
    with _Timer(30, "criterion 5: sixth trace power, generic n, exact Taylor"):
        spec = expect.EnsembleSpec("hermite", a, GENERIC)
        f = expect.expect_monomial_expr(spec, SymExpr("m", {(6,): 1}))
        cs = f.series_coefficients("n", 4)
        assert cs[0] == 0
        assert cs[1] == (15 * a**3 - 32 * a**2 + 32 * a - 15) / a**3
        assert cs[2] == (32 * a**2 - 54 * a + 32) / a**3
        assert cs[3] == (22 * a - 22) / a**3
        assert cs[4] == rf(5) / a**3
        assert f.substitute({"a": 1}) == 5 * N**4 + 10 * N**2


def test_06_sum_identity():
    with _Timer(60, "criterion 6: sum of C over partitions equals (sum x)^k, k <= 6"):
        for k in range(1, 7):
            for nv in {3, k}:
                total = SymExpr("m", {}, nv)
                for kap in partitions_of(k):
                    total = total.add(jack.jack_expand(a, kap, "C", nv))
                for lam, coeff in total.terms.items():
                    multinomial = math.factorial(k)
                    for part in lam:
                        multinomial //= math.factorial(part)
                    assert coeff == multinomial
                assert set(total.terms) == {
                    lam for lam in partitions_of(k) if len(lam) <= nv
                }


def test_07_eigenfunction_suite():
    from mops.rational import G1, G2, GAMMA

    with _Timer(300, "criterion 7: D*, Jacobi and Laguerre operator eigenchecks"):
        for k in range(1, 5):
            for kap in partitions_of(k):
                if len(kap) > 3:
                    continue
                e = jack.jack_expand(a, kap, "C", 3)
                got = jack.apply_dstar(e, a, 3)
                assert got.terms == e.scale(jack.dstar_eigenvalue(a, kap, 3)).terms
        for k in range(1, 4):
            for kap in partitions_of(k):
                if len(kap) > 2:
                    continue
                for build in (
                    lambda kk: orthopoly.laguerre(a, kk, GAMMA, 2),
                    lambda kk: orthopoly.jacobi(a, kk, G1, G2, 2),
                ):
                    e = build(kap)
                    lhs = orthopoly.family_operator(e)
                    rhs = e.to_monomials(a).scale(orthopoly.family_eigenvalue(e))
                    assert lhs.terms == rhs.terms


def test_08_orthogonality():
    with _Timer(60, "criterion 8: <P_lam, P_mu> = 0 for unequal pairs, k <= 5"):
        for k in range(1, 6):
            parts = partitions_of(k)
            expansions = {
                lam: symfun.m2p(jack.jack_expand(a, lam, "P", GENERIC)) for lam in parts
            }
            for i, lam in enumerate(parts):
                for mu in parts[i + 1 :]:
                    assert symfun.alpha_inner_product(expansions[lam], expansions[mu], a) == 0


def test_09_hermite_constructions_agree():
    with _Timer(120, "criterion 9: hermite == hermite2, k <= 5, symbolic alpha and n"):
        for k in range(1, 6):
            for kap in partitions_of(k):
                h1 = orthopoly.hermite(a, kap, GENERIC)
                h2 = orthopoly.hermite2(a, kap, GENERIC)
                assert h1.terms == h2.terms, kap


def test_10_univariate_reductions():
    from mops.rational import G1, G2, GAMMA

    with _Timer(120, "criterion 10: univariate reductions and the moment triad"):
        one = Fraction(1)
        # classical polynomials for k <= 4, exact
        for k in range(1, 5):
            h = orthopoly.hermite(one, (k,), 1).to_monomials(one)
            want = monic_orthogonal(hermite_moments(2 * k + 1), k)
            for d, w in enumerate(want):
                got = h.coefficient((d,) if d else ())
                assert got == w
            lag = orthopoly.laguerre(one, (k,), GAMMA, 1).to_monomials(one)
            want = monic_orthogonal(laguerre_moments(2 * k + 1), k)
            sign = -1 if k % 2 else 1
            for d, w in enumerate(want):
                assert lag.coefficient((d,) if d else ()) == sign * w
            jac = orthopoly.jacobi(one, (k,), G1, G2, 1).to_monomials(one)
            want = monic_orthogonal(jacobi_moments(2 * k + 1), k)
            for d, w in enumerate(want):
                assert jac.coefficient((d,) if d else ()) == sign * w
        # ensemble moments at n = 1 against quadrature, to 1e-10
        gamma_val = Fraction(1)
        g1_val, g2_val = Fraction(1), Fraction(1)
        spec_h = expect.EnsembleSpec("hermite", one, 1)
        spec_l = expect.EnsembleSpec("laguerre", one, 1, g=gamma_val)
        spec_j = expect.EnsembleSpec("jacobi", one, 1, g1=g1_val, g2=g2_val)
        zh, _ = si.quad(lambda x: math.exp(-x * x / 2), -math.inf, math.inf)
        zl, _ = si.quad(lambda x: x * math.exp(-x), 0, math.inf)
        zj, _ = si.quad(lambda x: x * (1 - x), 0, 1)
        for k in range(1, 7):
            got = float(expect.expect_jack_c(spec_h, (k,)))
            want, _ = si.quad(
                lambda x: x**k * math.exp(-x * x / 2), -math.inf, math.inf
            )
            assert abs(got - want / zh) < 1e-10
            if k % 2 == 0:
                dfact = 1
                for t in range(1, k, 2):
                    dfact *= t
                assert got == dfact
            got = float(expect.expect_jack_c(spec_l, (k,)))
            want, _ = si.quad(lambda x: x ** (k + 1) * math.exp(-x), 0, math.inf)
            assert abs(got - want / zl) < 1e-10 * max(1.0, abs(got))
            assert Fraction(expect.expect_jack_c(spec_l, (k,))) == Fraction(
                binom.sfact(gamma_val + 1, k)
            )
            got = float(expect.expect_jack_c(spec_j, (k,)))
            want, _ = si.quad(lambda x: x ** (k + 1) * (1 - x), 0, 1)
            assert abs(got - want / zj) < 1e-10


def test_11_level_density():
    with _Timer(300, "criterion 11: level density polynomial (alpha=1/4, n=5) and mass"):
        reference = {
            32: 2814749767106560000000000000000,
            30: -2814749767106560000000000000000,
            28: 1720515795143884800000000000000,
            26: -696386684568207360000000000000,
            24: 194340604354756608000000000000,
            22: -36625240845346406400000000000,
            20: 4740055701777285120000000000,
            18: -658121972672102400000000000,
            16: 162266873453346816000000000,
            14: -31084533121233715200000000,
            12: 2673909486122434560000000,
            10: -136819200341311488000000,
            8: 29341248756019200000000,
            6: -1130060455927603200000,
            4: 67489799891754240000,
            2: -2060099901411552000,
            0: 32632929952848225,
        }
        scaled = hypergeom.level_density_scaled_polynomial(8, 5)
        # the reference table absorbs Gamma(1 + n/alpha)/Gamma(1 + 1/alpha)
        # = 20!/4! into the prefactor
        pref = Fraction(math.factorial(20), math.factorial(4))
        for s, value in reference.items():
            assert scaled[s] * pref == value, s
        for s in range(1, 33, 2):
            assert scaled[s] == 0
        total, _ = si.quad(
            lambda t: hypergeom.level_density(2, 4, t),
            -math.inf,
            math.inf,
        )
        assert abs(total - 1.0) < 1e-6


def test_12_smallest_eigenvalue_density():
    with _Timer(60, "criterion 12: smallest-eigenvalue densities normalize to 1"):
        # complex Wishart sizes (3,6) and (2,10): p = dof - size, m = size
        for p, m in [(3, 3), (8, 2)]:
            mass = hypergeom.smallest_eig_mass(Fraction(1), p, m)
            terms = hypergeom.smallest_eig_terms(Fraction(1), p, m)
            total, _ = si.quad(
                lambda t: hypergeom.smallest_eig_density(Fraction(1), p, m, t)
                / mass,
                0,
                math.inf,
                limit=200,
            )
            assert abs(total - 1.0) < 1e-6
            # exact termination: the 2F0 factor is a polynomial in 1/x of
            # degree p(m-1); widths never exceed p
            assert len(terms) == p * (m - 1) + 1
            full = hypergeom.ghypergeom(
                Fraction(1),
                [rf(-p), rf(Fraction(m) + 1)],
                [],
                ("xid", rf(1), m - 1),
                limit=p * (m - 1) + 25,
            )
            assert full == sum(terms)


def test_13_binomial_properties():
    with _Timer(120, "criterion 13: binomial-coefficient identities and oracle"):
        for k in range(1, 9):
            for kap in partitions_of(k):
                assert binom.gbinomial(a, kap, (1,)) == k
        for k in range(1, 7):
            for kap in partitions_of(k):
                subs = set(partitions.subpartitions_of(kap))
                for s in range(0, k + 1):
                    for sig in partitions_of(s):
                        value = binom.gbinomial(a, kap, sig)
                        assert (value != 0) == (sig in subs)
        for kap in [(2,), (1, 1), (2, 1), (3,), (2, 2), (3, 1), (2, 1, 1), (4,)]:
            for sig in partitions.subpartitions_of(kap):
                expected = binom.gbinomial(a, kap, sig)
                for m in {len(kap), partitions.weight(kap)}:
                    assert gbinomial_from_definition(a, kap, sig, m) == expected


def test_14_laguerre_hermite_limit():
    with _Timer(30, "criterion 14: Laguerre converges to Hermite along the gamma grid"):
        grid = [100, 10**4, 10**6]
        for alpha in (1, 2):
            for kap in [(2,), (1, 1)]:
                devs = orthopoly.laguerre_hermite_limit_check(
                    Fraction(alpha), kap, 2, grid, [0.3, -0.7]
                )
                assert devs[0] > devs[1] > devs[2]
                assert devs[2] < 1e-2


def test_15_conjecture():
    with _Timer(120, "criterion 15: m_[k] expansion coefficients, k <= 6"):
        for k in range(1, 7):
            for entry in expect.conjecture_coefficients(a, k):
                assert entry["conforming"], entry
                assert isinstance(entry["n"], int) and entry["n"] != 0


def test_16_performance_smoke():
    label = "criterion 16: k=15 Jack timing, [3,3,3,3,3] vs [14,1] at alpha=1 (recorded)"
    start = time.monotonic()
    jack.jack_monomial_coefficients(Fraction(1), (3, 3, 3, 3, 3))
    t_box = time.monotonic() - start
    start = time.monotonic()
    jack.jack_monomial_coefficients(Fraction(1), (14, 1))
    t_hook = time.monotonic() - start
    print(
        "PASS %s: [3^5] %.2fs, [14,1] %.2fs, ratio %.2f"
        % (label, t_box, t_hook, t_hook / max(t_box, 1e-9))
    )
