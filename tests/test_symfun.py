import ast
import math
import pathlib
import random
from fractions import Fraction

import pytest

from mops import jack, parser, symfun
from mops.errors import DomainError, UnsupportedModeError
from mops.partitions import partitions_of
from mops.rational import ALPHA, rf
from mops.symfun import (
    GENERIC,
    Leaf,
    Pow,
    Prod,
    Scalar,
    Sum,
    SymExpr,
    alpha_inner_product,
    eval_numeric,
    expand_to_monomials,
    jack2jack,
    m2jack,
    m2m,
    m2p,
    p2m,
)

from oracles import m2jack_field, mono_product_by_rearrangements, power_sum_monomials

a = ALPHA


def m_(*part):
    return Leaf("m", part)


def p_(*part):
    return Leaf("p", part)


def test_m2m_products():
    e = m2m(Prod([m_(1), m_(1)]), 2)
    assert e.terms == {(2,): 1, (1, 1): 2}
    e = m2m(Prod([m_(2, 1), m_(1, 1, 1)]), 3)
    assert e.terms == {(3, 2, 1): 1}
    e = m2m(Pow(m_(1, 1, 1), 2), 3)
    assert e.terms == {(2, 2, 2): 1}


def test_m2m_generic_matches_large_numeric():
    # stabilized coefficients equal the numeric ones for every n >= l+l'
    cases = [
        (Prod([m_(2, 1), m_(1, 1)]), 5),
        (Prod([m_(1, 1), m_(1, 1)]), 4),
        (Prod([m_(3), m_(2, 1)]), 4),
        (Pow(Sum([m_(2, 1), m_(1)]), 2), 4),
        (Prod([m_(1), m_(1, 1), m_(1)]), 4),
    ]
    for tree, lensum in cases:
        gen = m2m(tree, GENERIC)
        for extra in range(0, 3):
            num = m2m(tree, lensum + extra)
            assert num.terms == gen.terms


def test_p2m_generic_matches_large_numeric():
    # one path for trees and leaves: generic p2m multiplies stabilized
    # monomials, and equals p2m at every n >= the total weight
    cases = [
        (Prod([p_(2, 1), p_(1)]), 4),
        (Pow(Sum([p_(1), p_(2)]), 3), 6),
        (Prod([p_(3, 2, 1), p_(2, 2)]), 10),
    ]
    for tree, weight in cases:
        gen = p2m(tree, GENERIC)
        for extra in range(0, 2):
            assert p2m(tree, weight + extra).terms == gen.terms


def test_zero_variables():
    # only m_() survives in 0 variables, and m_() * m_() = m_()
    assert symfun.mono_product((), (), 0) == {(): 1}
    assert m2m(parser.parse_expression("2*m[1]"), 0).terms == {}
    assert m2m(parser.parse_expression("(3 + m[2])^2"), 0).terms == {(): 9}
    assert p2m(parser.parse_expression("2*p[1] + 5"), 0).terms == {(): 5}


def test_mono_product_with_a_generic_count_is_stabilized():
    # a generic count multiplies in len(lam) + len(mu) variables, where more add no term
    for lam, mu in [((1,), (1,)), ((2, 1), (1,)), ((), ()), ((3,), ())]:
        n = max(len(lam) + len(mu), 1)
        want = symfun.mono_product(lam, mu, n)
        assert symfun.mono_product(lam, mu, GENERIC) == want == symfun.mono_product(lam, mu, n + 2)


def test_mono_products_match_rearrangement_oracle():
    # orbit counting against the count over every rearrangement of mu
    parts = [lam for w in range(7) for lam in partitions_of(w)]
    for n in range(8):
        for lam in parts:
            for mu in parts:
                want = mono_product_by_rearrangements(lam, mu, n)
                assert symfun.mono_product(lam, mu, n) == want, (lam, mu, n)


def test_m2m_numeric_truncates():
    e = m2m(Prod([m_(1, 1), m_(1, 1)]), 2)
    assert all(len(p) <= 2 for p in e.terms)
    assert e.terms[(2, 2)] == 1


def test_m2p_examples():
    assert m2p(m_(2)).terms == {(2,): 1}
    e = m2p(m_(1, 1))
    assert e.terms == {(1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)}
    e = m2p(m_(2, 1))
    assert e.terms == {(2, 1): 1, (3,): -1}


def test_p2m_examples():
    assert p2m(p_(2), 3).terms == {(2,): 1}
    e = p2m(Prod([p_(1), p_(1)]), 3)
    assert e.terms == {(2,): 1, (1, 1): 2}
    e = p2m(Prod([p_(2), p_(1)]), 2)
    assert e.terms == {(3,): 1, (2, 1): 1}


def test_roundtrip_p_and_m():
    for k in range(1, 7):
        for lam in partitions_of(k):
            back = p2m(m2p(SymExpr("m", {lam: 1})), k)
            assert back.terms == {lam: 1}
    # a product of power sums is the power sum of the concatenated partition
    for tree, lam in [
        (Prod([p_(2, 1), p_(1)]), (2, 1, 1)),
        (Prod([p_(3, 2, 1), p_(2, 2)]), (3, 2, 2, 2, 1)),
        (Pow(p_(2), 3), (2, 2, 2)),
        (Prod([p_(1), p_(3, 1), Pow(p_(1), 2)]), (3, 1, 1, 1, 1)),
    ]:
        assert m2p(p2m(tree)).terms == {lam: 1}


def test_m2jack_examples():
    assert m2jack(a, SymExpr("m", {(1,): 1})).terms == {(1,): rf(1)}
    e = m2jack(a, SymExpr("m", {(1, 1): 1}))
    assert e.terms == {(1, 1): (1 + a) / (2 * a)}
    e = m2jack(a, SymExpr("m", {(2,): 1}))
    assert e.terms == {(2,): rf(1), (1, 1): -1 / a}


def test_m2jack_roundtrip():
    for k in range(1, 7):
        for kap in partitions_of(k):
            e = jack.jack_expand(a, kap, "C", GENERIC)
            back = m2jack(a, e, GENERIC)
            assert back.terms == {kap: rf(1)}


def test_sum_identity():
    # sum of C over partitions of k with length <= n is (x1+...+xn)^k
    import math

    for k in range(1, 7):
        for nv in (2, 3, k):
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


def test_jack2jack_identity_and_worked_example():
    e = jack2jack(a, Leaf("C", (2, 1)), GENERIC)
    assert e.terms == {(2, 1): rf(1)}
    z = jack2jack(a, Prod([Leaf("J", (2, 1)), Leaf("C", (1, 1, 1))]), 3)
    expected = (Fraction(1, 120) * (2 + 3 * a) * (1 + 2 * a) ** 2) / (a * (1 + a))
    assert z.terms == {(3, 2, 1): expected}


def test_jack2jack_product_composition():
    # P[1]*P[1] must reproduce m2jack(m[2] + 2 m[1,1])
    z = jack2jack(a, Prod([Leaf("P", (1,)), Leaf("P", (1,))]), 2)
    direct = m2jack(a, SymExpr("m", {(2,): 1, (1, 1): 2}, 2), 2)
    assert z.terms == direct.terms


def test_jack2jack_generic_product_rejected():
    with pytest.raises(UnsupportedModeError):
        jack2jack(a, Prod([Leaf("C", (1,)), Leaf("C", (1,))]), GENERIC)
    square = Pow(Sum([Leaf("C", (1,)), Leaf("C", (2,))]), 2)
    with pytest.raises(UnsupportedModeError):
        jack2jack(a, square, GENERIC)
    expanded = Sum([Prod([Leaf("C", (i,)), Leaf("C", (j,))]) for i in (1, 2) for j in (1, 2)])
    assert jack2jack(a, square, 3) == jack2jack(a, expanded, 3)
    # linear combinations stay allowed
    e = jack2jack(a, Sum([Leaf("C", (2,)), Prod([Scalar(rf(2)), Leaf("J", (1, 1))])]), GENERIC)
    assert e.coefficient((1, 1)) == 2 * jack.normalization_factor("J", "C", a, (1, 1))


def test_symexpr_and_tree_follow_one_basis_rule():
    # a SymExpr is the sum of its terms: the conversions take it as they
    # take the tree of the same sum
    for nvars in (GENERIC, 2):
        tree = jack2jack(a, Leaf("m", (2,)), nvars)
        assert jack2jack(a, SymExpr("m", {(2,): 1}, nvars), nvars) == tree
        assert tree.terms == {(2,): rf(1), (1, 1): -1 / a}
    with pytest.raises(DomainError, match="found p"):
        jack2jack(a, SymExpr("p", {(1,): 1}), 2)
    with pytest.raises(DomainError, match="found m"):
        p2m(SymExpr("m", {(1,): 1}), 2)


def test_symexpr_coefficients_are_exact():
    with pytest.raises(DomainError, match="coefficient"):
        SymExpr("m", {(1,): 0.5}, 2)
    with pytest.raises(DomainError, match="scalar"):
        SymExpr("m", {(1,): 1}, 2).scale(0.5)
    # the check stores nothing: a constant rational function stays one, and
    # str() of it keeps its own form ("-1/(2)", not the Fraction's "-1/2")
    half = rf(-1) / 2
    assert SymExpr("m", {(1,): half}, 2).terms[(1,)] is half
    assert SymExpr("m", {(1,): 1}, 2).scale(half).text() == "-1/(2)*m[1]"


def test_inner_product():
    f = SymExpr("p", {(2,): 1})
    g = SymExpr("p", {(1, 1): 1})
    assert alpha_inner_product(f, g, a) == 0
    assert alpha_inner_product(g, g, a) == 2 * a**2
    h = SymExpr("p", {(2, 1): 1})
    assert alpha_inner_product(h, h, a) == 2 * a**2


def test_jack_p_orthogonality():
    # <P_lam, P_mu> = 0 for unequal partitions of the same weight
    for k in range(1, 6):
        parts = partitions_of(k)
        expansions = {lam: m2p(jack.jack_expand(a, lam, "P", GENERIC)) for lam in parts}
        for i, lam in enumerate(parts):
            for mu in parts[i + 1 :]:
                assert alpha_inner_product(expansions[lam], expansions[mu], a) == 0


def test_eval_numeric():
    assert eval_numeric(SymExpr("m", {(2,): 1}, 3), [1, 1, 1]) == 3
    assert eval_numeric(SymExpr("m", {(1, 1): 1}, 2), [2, 3]) == 6
    e = m2jack(Fraction(1), SymExpr("m", {(2,): 1, (1, 1): 1}, 2), 2)
    assert eval_numeric(e, [1, 1], alpha=Fraction(1)) == 3
    cexp = SymExpr("C", {(2,): rf(1)}, 2)
    assert eval_numeric(cexp, [1, 1], alpha=Fraction(1)) == 3
    # a generic-count monomial with more parts than the point has no term there
    assert eval_numeric(SymExpr("m", {(1, 1, 1): 1}), [1, 2]) == 0
    value = eval_numeric(SymExpr("m", {(2, 1, 1): 1, (1,): 3}), [1.0, 2.0])
    assert value == 9 and isinstance(value, float)
    assert eval_numeric(jack.jack_expand(Fraction(1), (2, 1, 1)), [Fraction(1, 3), 2]) == 0


def test_eval_numeric_rounds_the_exact_value_once():
    # the monomials of p[1^6] cancel to a small value; the float result is
    # still the exact value rounded once
    rng = random.Random(6)
    for _ in range(200):
        xs = [rng.uniform(-2, 2) for _ in range(3)]
        exact = {
            (1,) * 6: sum(map(Fraction, xs)) ** 6,
            (3, 2, 1): math.prod(sum(Fraction(x) ** r for x in xs) for r in (3, 2, 1)),
        }
        for lam, want in exact.items():
            assert eval_numeric(SymExpr("p", {lam: 1}, 3), xs) == float(want), (lam, xs)
    # an exact point keeps the exact value; one float coordinate rounds it
    xs = [Fraction(1, 3), Fraction(-2, 5), 3]
    assert eval_numeric(SymExpr("m", {(2, 1): Fraction(1, 7)}, 3), xs) == Fraction(2, 63)
    assert eval_numeric(SymExpr("m", {(2, 1): Fraction(1, 7)}, 3), xs[:2] + [3.0]) == 2 / 63


def test_eval_numeric_unbound_parameters():
    e = SymExpr("m", {(1,): 1 + a}, 1)
    with pytest.raises(DomainError) as err:
        eval_numeric(e, [2.0])
    assert "a" in str(err.value)


def test_conversions_refuse_foreign_bases():
    with pytest.raises(DomainError, match="monomial"):
        m2m(Prod([m_(1), p_(1)]), 2)
    with pytest.raises(DomainError, match="monomial"):
        m2m(SymExpr("p", {(1,): 1}, 2), 2)
    with pytest.raises(DomainError, match="alpha"):
        eval_numeric(SymExpr("C", {(2,): 1}, 2), [1.0, 2.0])


def _referrers(source, module, target="jack_expand"):
    """module.function names whose body refers to target."""
    found = set()
    for stmt in ast.parse(source).body:
        defs = [stmt] if not isinstance(stmt, ast.ClassDef) else stmt.body
        for node in defs:
            name = "%s.%s" % (module, getattr(node, "name", "<module>"))
            for sub in ast.walk(node):
                if target in (getattr(sub, "id", None), getattr(sub, "attr", None)):
                    found.add(name)
    return found


def test_monomial_expansions_go_through_expand_to_monomials():
    # one place turns a basis into monomials; the CLI's jack command, which
    # prints the expansion itself, is the only other caller of jack_expand
    assert _referrers("def f():\n    return jack.jack_expand(1, (1,))\n", "m") == {"m.f"}
    assert _referrers("class K:\n    def g(self):\n        jack_expand()\n", "m") == {"m.g"}
    src = pathlib.Path(symfun.__file__).parent
    callers = set()
    for path in sorted(src.glob("*.py")):
        callers |= _referrers(path.read_text(), path.stem)
    assert callers == {"symfun.expand_to_monomials", "cli.cmd_jack"}


def test_jack_tables_are_read_only_inside_jack():
    # every Jack table is built to its variable count in jack.py; the sweeps
    # of m2jack and jack2jack read the cut C table through jack._c_table,
    # and J's int table is read by the scaled tables and, at a point with a
    # negative alpha, by jack._table_values
    sample = "def f():\n    return jack._c_table(1, 2, (1,))\n"
    assert _referrers(sample, "m", "_c_table") == {"m.f"}
    src = pathlib.Path(symfun.__file__).parent
    readers = {
        "_jack_j_table": {"jack._jack_monomial_coefficients", "jack._table_values"},
        "_jack_monomial_coefficients": {"jack._c_table", "jack.jack_expand"},
        "_c_table": {"jack.jack_monomial_coefficients", "symfun.m2jack", "symfun.jack2jack"},
    }
    for target, want in readers.items():
        found = set()
        for path in sorted(src.glob("*.py")):
            found |= _referrers(path.read_text(), path.stem, target)
        assert found == want, target


def test_power_sums_match_exponent_vector_oracle():
    # p2m multiplies one-part monomials; the oracle adds parts to exponent
    # vectors.  m2p is checked by expanding its answer back with the oracle.
    for w in range(11):
        for lam in partitions_of(w):
            for n in (GENERIC, 0, 1, 2, 3, 4, 5, 6):
                want = power_sum_monomials(lam, max(w, 1) if n is GENERIC else n)
                assert p2m(p_(*lam), n).terms == want, (lam, n)
            back = {}
            for mu, c in m2p(m_(*lam)).terms.items():
                for nu, d in power_sum_monomials(mu, max(w, 1)).items():
                    back[nu] = back.get(nu, 0) + c * d
            assert {nu: c for nu, c in back.items() if c} == {lam: 1}, lam


def test_power_sum_longer_than_the_variable_count_is_kept():
    # p[1,1,1] in 2 variables is (x1 + x2)^3, not 0 as m[1,1,1] is
    e = SymExpr("p", {(1, 1, 1): 1}, 2)
    assert e.terms == {(1, 1, 1): 1}
    assert p2m(e, 2) == p2m(p_(1, 1, 1), 2) == SymExpr("m", {(3,): 1, (2, 1): 3}, 2)
    assert eval_numeric(e, [1, 2]) == 27
    assert SymExpr("m", {(1, 1, 1): 1}, 2).terms == {}


NODE_TYPES = {"Scalar", "Leaf", "Sum", "Prod", "Pow", "SymExpr"}


def _node_type_tests(source, module):
    """module.function names that call isinstance with an expression node type."""
    found = set()
    for stmt in ast.parse(source).body:
        defs = [stmt] if not isinstance(stmt, ast.ClassDef) else stmt.body
        for node in defs:
            prefix = module if stmt is node else "%s.%s" % (module, stmt.name)
            name = "%s.%s" % (prefix, getattr(node, "name", "<module>"))
            for sub in ast.walk(node):
                if not (isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "isinstance"):
                    continue
                for arg in ast.walk(sub.args[1]):
                    if {getattr(arg, "id", None), getattr(arg, "attr", None)} & NODE_TYPES:
                        found.add(name)
    return found


def test_only_the_fold_walks_expressions():
    # _fold is the one place that tells expression nodes apart; besides it
    # only SymExpr equality and the parser's scalar folding look at a type
    sample = "def f(x):\n    return isinstance(x, (int, symfun.Pow))\ndef g(x):\n    isinstance(x, int)\n"
    assert _node_type_tests(sample, "m") == {"m.f"}
    sample = "class K:\n    def h(self, x):\n        def inner():\n            isinstance(x, Leaf)\n"
    assert _node_type_tests(sample, "m") == {"m.K.h"}
    src = pathlib.Path(symfun.__file__).parent
    found = set()
    for path in sorted(src.glob("*.py")):
        found |= _node_type_tests(path.read_text(), path.stem)
    allowed = {"symfun._fold", "symfun.SymExpr.__eq__", "parser._is_scalar", "parser.parse_scalar"}
    assert found == allowed


def test_m2jack_numeric_mode_roundtrip():
    # the triangular sweep stays exact in the truncated space
    for k in range(1, 7):
        for kap in partitions_of(k):
            if len(kap) > 2:
                continue
            e = jack.jack_expand(a, kap, "C", 2)
            assert m2jack(a, e, 2).terms == {kap: rf(1)}


def test_jack_p_norm_hook_formula():
    # <P_lam, P_lam> equals the ratio of upper to lower hook products,
    # linking the recurrence, the basis conversions and the inner product
    from mops.partitions import hook_products

    for k in range(1, 6):
        for lam in partitions_of(k):
            pexp = m2p(jack.jack_expand(a, lam, "P", GENERIC))
            norm = alpha_inner_product(pexp, pexp, a)
            c_upper, c_lower, _ = hook_products(a, lam)
            assert norm == c_upper / c_lower, lam


def test_jack_product_tree_shapes_agree():
    # different parenthesizations of the same product flatten identically
    n = 3
    left = jack2jack(a, Prod([Prod([Leaf("C", (2,)), Leaf("C", (1,))]), Leaf("P", (1,))]), n)
    right = jack2jack(a, Prod([Leaf("C", (2,)), Prod([Leaf("C", (1,)), Leaf("P", (1,))])]), n)
    flat = jack2jack(a, Prod([Leaf("C", (2,)), Leaf("C", (1,)), Leaf("P", (1,))]), n)
    assert left.terms == right.terms == flat.terms


def test_unknown_node_raises_domain_error():
    # the generic-n length bound and the fold reject a foreign node alike
    convert = [
        (m_(1), m2m),
        (p_(1), p2m),
        (Leaf("C", (1,)), lambda tree, n: expand_to_monomials(a, tree, n)),
    ]
    for leaf, fn in convert:
        for tree in ("x", Prod([leaf, "x"]), Pow(Sum([leaf, 3]), 2)):
            for nvars in (GENERIC, 2):
                with pytest.raises(DomainError, match="unknown expression node"):
                    fn(tree, nvars)


def test_monomial_expansion_validates_each_key_once(monkeypatch):
    # canonical keys skip re-validation as the expansion accumulates: each
    # C term is checked by the few public calls it passes (SymExpr, Leaf,
    # jack_expand, the Jack table), no monomial key is checked again
    from mops import orthopoly, partitions

    h = Fraction(1, 2)
    expansion = orthopoly.hermite(h, (6, 4, 2), 6)
    want = expansion.to_monomials(h)
    calls = []
    checked = partitions.as_partition

    def counted(parts):
        calls.append(parts)
        return checked(parts)

    monkeypatch.setattr(partitions, "as_partition", counted)
    got = expansion.to_monomials(h)
    assert list(got.terms.items()) == list(want.terms.items())
    assert len(expansion.terms) == 29 and len(got.terms) == 101
    assert len(calls) <= 4 * len(expansion.terms)


@pytest.mark.parametrize("alpha, top", [(ALPHA, 7), (-ALPHA, 7), (3 * ALPHA / 2 + 1, 6), (ALPHA**2, 5)], ids=repr)
def test_sweep_into_the_c_basis_matches_the_field_sweep(alpha, top):
    # m_lambda for every |lambda| <= top: factored columns and coefficients
    # added up once when picked, against field columns and one field
    # subtraction per column
    for k in range(top + 1):
        for lam in partitions_of(k):
            got = symfun.m2jack(alpha, SymExpr("m", {lam: 1}))
            want = m2jack_field(alpha, lam)
            assert got.terms.keys() == want.keys(), lam
            assert all(got.terms[mu].text() == want[mu].text() for mu in want), lam
