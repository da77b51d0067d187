"""The operators against sympy: the literal operator on the explicit m_lambda.

sympy differentiates the monomial symmetric polynomial written out in n
variables, divides the pair terms by x_i - x_j as written and cancels;
nothing here uses the divided-difference rule of ``operators``.
"""

import itertools
from fractions import Fraction

import pytest
import sympy

from mops import operators
from mops.partitions import partitions_of
from mops.symfun import SymExpr

ALPHAS = (Fraction(1), Fraction(2), Fraction(1, 3))
WEIGHT = {"dstar": 2, "deltastar": 1, "deltastarstar": 0}


def _explicit(expr, xs):
    """A monomial SymExpr as a sympy polynomial in xs."""
    total = sympy.Integer(0)
    for part, coeff in expr.terms.items():
        exps = part + (0,) * (len(xs) - len(part))
        mono = sum(
            sympy.prod(x**e for x, e in zip(xs, vec))
            for vec in set(itertools.permutations(exps))
        )
        total += sympy.Rational(coeff.numerator, coeff.denominator) * mono
    return sympy.expand(total)


def _literal(kind, f, xs):
    """(second-order or first-order part, pair part) of the operator on f."""
    if kind == "E":
        return sum(x * sympy.diff(f, x) for x in xs), 0
    if kind == "eps":
        return sum(sympy.diff(f, x) for x in xs), 0
    w = WEIGHT[kind]
    second = sum(x**w * sympy.diff(f, x, 2) for x in xs)
    pairs = sum(
        xi**w / (xi - xj) * sympy.diff(f, xi) for xi in xs for xj in xs if xi is not xj
    )
    return second, sympy.cancel(sympy.together(pairs))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["dstar", "deltastar", "deltastarstar", "E", "eps"])
def test_apply_matches_literal_operator(kind, n):
    xs = sympy.symbols("x1:%d" % (n + 1))
    for k in range(5):
        for lam in partitions_of(k):
            if len(lam) > n:
                continue
            mono = SymExpr("m", {lam: Fraction(1)}, n)
            second, pairs = _literal(kind, _explicit(mono, xs), xs)
            for alpha in ALPHAS:
                want = sympy.expand(second + 2 / sympy.Rational(alpha.numerator, alpha.denominator) * pairs)
                got = operators.apply_to_symexpr(mono, [(1, kind)], alpha, n)
                assert sympy.expand(_explicit(got, xs) - want) == 0, (kind, n, lam, alpha)

