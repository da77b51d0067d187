import itertools
import math
from fractions import Fraction

import pytest

from oracles import hook_length_product, jack_c_recurrence, jack_j_table_per_move, kostka

from mops import hypergeom, jack
from mops.errors import DomainError, PoleError
from mops.partitions import LESS, compare, hook_products, partitions_of, rho
from mops.rational import ALPHA, N, rf
from mops.symfun import GENERIC, SymExpr, eval_numeric

a = ALPHA

# Frozen Jack J expansions in the monomial basis for |kappa| <= 4.  Every
# entry is pinned by three independent constraints: the monic triangular P
# form (J = c'(kappa, alpha) P with c' the lower-hook product), the sum
# identity for the C normalization, and the eigenfunction equation.
J_TABLE = {
    (1,): {(1,): rf(1)},
    (2,): {(2,): 1 + a, (1, 1): rf(2)},
    (1, 1): {(1, 1): rf(2)},
    (3,): {(3,): (1 + a) * (1 + 2 * a), (2, 1): 3 * (1 + a), (1, 1, 1): rf(6)},
    (2, 1): {(2, 1): 2 + a, (1, 1, 1): rf(6)},
    (1, 1, 1): {(1, 1, 1): rf(6)},
    (4,): {
        (4,): (1 + a) * (1 + 2 * a) * (1 + 3 * a),
        (3, 1): 4 * (1 + a) * (1 + 2 * a),
        (2, 2): 6 * (1 + a) ** 2,
        (2, 1, 1): 12 * (1 + a),
        (1, 1, 1, 1): rf(24),
    },
    (3, 1): {
        (3, 1): 2 * (1 + a) ** 2,
        (2, 2): 4 * (1 + a),
        (2, 1, 1): 2 * (5 + 3 * a),
        (1, 1, 1, 1): rf(24),
    },
    (2, 2): {
        (2, 2): 2 * (2 + a) * (1 + a),
        (2, 1, 1): 4 * (2 + a),
        (1, 1, 1, 1): rf(24),
    },
    (2, 1, 1): {(2, 1, 1): 2 * (3 + a), (1, 1, 1, 1): rf(24)},
    (1, 1, 1, 1): {(1, 1, 1, 1): rf(24)},
}


def test_jack_j_table():
    for kappa, expected in J_TABLE.items():
        got = jack.jack_expand(a, kappa, "J", GENERIC)
        assert got.terms == expected, kappa


def test_installation_check_text():
    e = jack.jack_expand(a, (3,), "P", 2)
    assert e.text() == "m[3] + 3/(1+2*a)*m[2,1]"


def test_zero_when_too_few_variables():
    for k in range(1, 6):
        for kap in partitions_of(k):
            for nv in range(0, len(kap)):
                assert not jack.jack_expand(a, kap, "C", nv)


def test_triangularity_and_positivity():
    # P normalization: monic leading coefficient, dominated partitions only,
    # positive coefficients at sampled alpha
    samples = [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)]
    for k in range(1, 7):
        for kap in partitions_of(k):
            e = jack.jack_expand(a, kap, "P", GENERIC)
            assert e.coefficient(kap) == 1
            for lam in e.terms:
                if lam != kap:
                    assert compare(lam, kap, "dominance") == LESS
            for s in samples:
                num = jack.jack_expand(s, kap, "P", GENERIC)
                assert all(c > 0 for c in num.terms.values())


def test_j_trailing_coefficient():
    for k in range(1, 7):
        for kap in partitions_of(k):
            e = jack.jack_expand(a, kap, "J", GENERIC)
            assert e.coefficient((1,) * k) == math.factorial(k)


def test_p_coefficients_vanish_at_alpha_infinity():
    for k in range(1, 6):
        for kap in partitions_of(k):
            e = jack.jack_expand(a, kap, "P", GENERIC)
            for lam, coeff in e.terms.items():
                if lam == kap:
                    continue
                assert coeff.limit_at_infinity("a") == 0


def test_identity_values():
    assert jack.jack_identity_value(a, (1,), "C", N) == N
    # J_[2](I_2) = 2(2+a): Table-1 row evaluated at (1,1)
    assert jack.jack_identity_value(a, (2,), "J", 2) == 2 * (2 + a)
    # numeric m below the length gives 0
    assert jack.jack_identity_value(a, (2, 1), "J", 1) == 0
    # alpha = -1 is a pole of C_[2] only: J_[2] = 2 m[1,1] there
    assert jack.jack_identity_value(-1, (2,), "J", 2) == 2 == eval_numeric(jack.jack_expand(-1, (2,), "J", 2), [1, 1])


def test_identity_value_matches_expansion():
    from mops.symfun import eval_numeric

    alpha = Fraction(1)
    kap = (2, 2, 2, 2, 2)
    val = jack.jack_identity_value(alpha, kap, "J", 5)
    e = jack.jack_expand(alpha, kap, "J", 5)
    assert eval_numeric(e, [1] * 5) == val


def test_normalization_factors():
    assert jack.normalization_factor("C", "C", a, (3, 1)) == 1
    assert jack.normalization_factor("C", "J", a, (2,)) == 1 / (1 + a)
    # J = c'(kappa, alpha) P; for [1,1] the lower-hook product is 2
    assert jack.normalization_factor("J", "P", a, (1, 1)) == 2
    # J_[1,1] = 2 P_[1,1] at alpha = -1 too, where C_[1,1] has a pole
    assert jack.normalization_factor("J", "P", -1, (1, 1)) == 2
    # cross-check: factors compose
    for kap in [(2,), (2, 1), (3,)]:
        f1 = jack.normalization_factor("C", "J", a, kap)
        f2 = jack.normalization_factor("J", "P", a, kap)
        f3 = jack.normalization_factor("C", "P", a, kap)
        assert f1 * f2 == f3
        assert jack.normalization_factor("P", "C", a, kap) == 1 / f3


def test_normalization_consistency_with_expansions():
    for kap in [(2,), (1, 1), (2, 1), (3, 1)]:
        c = jack.jack_expand(a, kap, "C", GENERIC)
        j = jack.jack_expand(a, kap, "J", GENERIC)
        factor = jack.normalization_factor("C", "J", a, kap)
        assert {p: factor * v for p, v in j.terms.items()} == c.terms


def test_apply_dstar_examples():
    # m[1] in 3 variables: eigenvalue (2/alpha) * 1 * (3-1)
    e = SymExpr("m", {(1,): rf(1)}, 3)
    out = jack.apply_dstar(e, a, 3)
    assert out.terms == {(1,): 4 / a}
    # C[2] in 2 variables
    c2 = jack.jack_expand(a, (2,), "C", 2)
    out = jack.apply_dstar(c2, a, 2)
    ev = jack.dstar_eigenvalue(a, (2,), 2)
    assert ev == 2 + 4 / a
    assert out.terms == c2.scale(ev).terms
    # C[1,1] in 2 variables: rho = -2/alpha
    c11 = jack.jack_expand(a, (1, 1), "C", 2)
    out = jack.apply_dstar(c11, a, 2)
    ev = jack.dstar_eigenvalue(a, (1, 1), 2)
    assert ev == -2 / a + 4 / a
    assert out.terms == c11.scale(ev).terms


def test_dstar_eigenfunctions():
    for k in range(1, 5):
        for kap in partitions_of(k):
            if len(kap) > 3:
                continue
            e = jack.jack_expand(a, kap, "C", 3)
            got = jack.apply_dstar(e, a, 3)
            ev = jack.dstar_eigenvalue(a, kap, 3)
            assert got.terms == e.scale(ev).terms


def test_numeric_alpha_pole():
    with pytest.raises(DomainError):
        jack.jack_expand(Fraction(0), (2,), "C", GENERIC)
    # j_(2) = 2a^2 (1 + a): alpha = -1 zeroes the lower hook 1 + a of the
    # first square (and rho([2]) - rho([1,1]) = 2 + 2/a with it)
    with pytest.raises(PoleError):
        jack.jack_expand(Fraction(-1), (2,), "C", GENERIC)


def test_j_and_p_are_finite_where_c_has_a_pole():
    # alpha = -2/3 zeroes an upper hook of (3,2,1), a pole of C; J is a
    # polynomial in alpha, and P = J / J_{kappa,kappa} divides by lower hooks
    kap, alpha = (3, 2, 1), Fraction(-2, 3)
    with pytest.raises(PoleError):
        jack.jack_expand(alpha, kap, "C")
    for norm in ("J", "P"):
        sym = jack.jack_expand(a, kap, norm).terms
        want = {lam: coeff.substitute({"a": alpha}).to_fraction() for lam, coeff in sym.items()}
        assert jack.jack_expand(alpha, kap, norm).terms == {lam: c for lam, c in want.items() if c}


def _value_or_pole(call):
    try:
        return call(), None
    except PoleError as exc:
        return None, str(exc)


@pytest.mark.parametrize("alpha", [Fraction(-1), Fraction(-1, 2), Fraction(-2, 3), Fraction(-3), Fraction(-3, 2)])
def test_every_normalization_is_one_factor_of_j(alpha):
    # V = f_V J: each value is the table's, and a normalization is undefined
    # exactly where its table raises, so a factor between two is defined
    # exactly where both are
    for k in range(8):
        for kappa in partitions_of(k):
            tables = {norm: _value_or_pole(lambda: jack.jack_expand(alpha, kappa, norm)) for norm in "CJP"}
            for norm in "CJP":
                for m in (1, 2, 5):
                    got = _value_or_pole(lambda: jack.jack_identity_value(alpha, kappa, norm, m))
                    want = _value_or_pole(lambda: eval_numeric(jack.jack_expand(alpha, kappa, norm, m), [1] * m))
                    assert got == want, (kappa, norm, m)
                for to in "CJP":
                    factor, pole = _value_or_pole(lambda: jack.normalization_factor(norm, to, alpha, kappa))
                    (v, v_pole), (w, w_pole) = tables[norm], tables[to]
                    if v_pole or w_pole:
                        assert pole in (v_pole, w_pole), (kappa, norm, to)
                        continue
                    assert pole is None, (kappa, norm, to)
                    assert v.terms == {lam: factor * c for lam, c in w.terms.items()}, (kappa, norm, to)


@pytest.mark.parametrize(
    "call",
    [
        lambda: jack.jack_identity_value(-1, (2,), "C", 2),
        lambda: jack.normalization_factor("C", "J", -1, (2,)),
        lambda: jack.normalization_factor("J", "C", -1, (2,)),
        lambda: hypergeom.ghypergeom(Fraction(-1), [1], [3], ("xid", Fraction(1, 2), 2), limit=4),
    ],
    ids=["identity_value", "normalization_factor", "normalization_factor_to_c", "ghypergeom_xid"],
)
def test_hook_product_pole_is_a_pole_error(call):
    # alpha = -1 zeroes the hook products of (2); no bare ZeroDivisionError
    with pytest.raises(PoleError):
        call()


@pytest.mark.parametrize("nvars", [2.5, 2.0, True, -1])
def test_jack_expand_needs_an_integer_variable_count(nvars):
    with pytest.raises(DomainError):
        jack.jack_expand(1, (2, 1), "C", nvars)


def test_dstar_nvars_cap():
    e = SymExpr("m", {(1,): rf(1)}, 7)
    with pytest.raises(DomainError):
        jack.apply_dstar(e, a, 7)


def test_concurrent_cache_use():
    # memo tables tolerate concurrent readers/writers; results never
    # depend on cache hits
    import threading

    from mops import cache

    cache.clear_all()
    kappas = [kap for k in range(1, 6) for kap in partitions_of(k)]
    results = [None] * 8
    def worker(slot):
        acc = {}
        for kap in kappas:
            acc[kap] = jack.jack_expand(a, kap, "J", GENERIC).terms
        results[slot] = acc

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)
    cache.clear_all()
    fresh = {kap: jack.jack_expand(a, kap, "J", GENERIC).terms for kap in kappas}
    assert fresh == results[0]


def test_symbolic_substitution_matches_numeric_path():
    # the symbolic table evaluated at a rational alpha equals the table
    # computed directly in rational arithmetic
    for kap in [(3, 1), (2, 2), (4, 2, 1), (3, 3, 2)]:
        sym = jack.jack_monomial_coefficients(a, kap)
        for alpha_val in (Fraction(1, 2), Fraction(3), Fraction(5, 7)):
            num = jack.jack_monomial_coefficients(alpha_val, kap)
            assert set(sym) == set(num)
            for lam, coeff in sym.items():
                assert coeff.substitute({"a": alpha_val}).to_fraction() == num[lam]


KAPPAS_TO_7 = [kap for k in range(1, 8) for kap in partitions_of(k)]


def _substituted(kappa, alpha):
    sym = jack.jack_monomial_coefficients(a, kappa)
    return {lam: coeff.substitute({"a": alpha}).to_fraction() for lam, coeff in sym.items()}


@pytest.mark.parametrize("alpha", [a, Fraction(1, 2), Fraction(3), Fraction(5, 7)], ids=str)
def test_table_matches_field_recurrence(alpha):
    for kap in KAPPAS_TO_7:
        got = jack.jack_monomial_coefficients(alpha, kap)
        assert got == jack_c_recurrence(alpha, kap), kap


def test_j_table_has_nonnegative_integer_coefficients():
    # Knop & Sahi: J_kappa's monomial coefficients lie in N[alpha]
    for kap in KAPPAS_TO_7:
        for lam, coeffs in jack._jack_j_table(kap, sum(kap)).items():
            assert coeffs[-1] and all(type(c) is int and c >= 0 for c in coeffs), (kap, lam)


def test_grouped_moves_match_one_move_per_row_pair():
    # the table counts the moves between rows of equal parts once per pair
    # of part values; the reference takes every (i, j, t) on its own
    for k in range(11):
        for kap in partitions_of(k):
            for length in range(1, max(k, 1) + 1):
                assert jack._jack_j_table(kap, length) == jack_j_table_per_move(kap, length), (kap, length)
    for kap in [(14, 1), (3, 3, 3, 3, 3)]:
        assert jack._jack_j_table(kap, sum(kap)) == jack_j_table_per_move(kap, sum(kap)), kap


def test_j_table_at_alpha_one_is_hook_lengths_times_kostka():
    # at alpha = 1, J_kappa = H_kappa s_kappa and s_kappa = sum K_{kappa,lambda} m_lambda
    for kap in KAPPAS_TO_7:
        hooks = hook_length_product(kap)
        expected = {}
        for lam in partitions_of(sum(kap)):
            count = kostka(kap, lam)
            if count:
                expected[lam] = hooks * count
        got = {lam: sum(coeffs) for lam, coeffs in jack._jack_j_table(kap, sum(kap)).items()}
        assert got == expected, kap


def _recurrence_zeros(kappa):
    """Every alpha != 0 at which rho_kappa - rho_lambda = 0 for some lambda < kappa."""

    def a_b(lam):
        return sum(p * (p - 1) for p in lam), sum(i * p for i, p in enumerate(lam))

    a_kap, b_kap = a_b(kappa)
    zeros = set()
    for lam in partitions_of(sum(kappa)):
        if compare(lam, kappa, "dominance") == LESS:
            a_lam, b_lam = a_b(lam)
            if b_kap != b_lam:
                zeros.add(Fraction(2 * (b_kap - b_lam), a_kap - a_lam))
    return sorted(zeros)


def test_pole_exactly_where_the_hook_product_vanishes():
    poles = finite = 0
    for kap in KAPPAS_TO_7:
        for alpha in _recurrence_zeros(kap):
            if hook_products(alpha, kap)[2] == 0:
                poles += 1
                with pytest.raises(PoleError):
                    jack.jack_monomial_coefficients(alpha, kap)
            else:
                finite += 1
                assert jack.jack_monomial_coefficients(alpha, kap) == _substituted(kap, alpha), (kap, alpha)
    assert poles and finite


@pytest.mark.parametrize("kappa, alpha", [((4,), Fraction(-3, 5)), ((3, 1), Fraction(-5, 3))], ids=str)
def test_recurrence_zero_off_the_hook_poles_is_finite(kappa, alpha):
    # rho_kappa - rho_lambda vanishes here, but no hook of kappa does
    assert hook_products(alpha, kappa)[2] != 0
    with pytest.raises(PoleError):
        jack_c_recurrence(alpha, kappa)
    assert jack.jack_monomial_coefficients(alpha, kappa) == _substituted(kappa, alpha)


def test_inexact_linear_division_is_an_error():
    assert jack._divide_linear([2, 5, 3], 3, -2) == [1, 1]
    with pytest.raises(ArithmeticError):
        jack._divide_linear([1, 1], 2, 0)
    with pytest.raises(ArithmeticError):
        jack._divide_linear([1, 2], 1, 0)


def test_table_over_n_parts_is_the_full_table_restricted():
    # a move of the recurrence never adds a part, so the table built over at
    # most n parts is exact; the tables are free of alpha, so this holds at
    # every alpha
    for k in range(11):
        for kap in partitions_of(k):
            full = jack._jack_j_table(kap, k)
            for n in range(len(kap), 5):
                want = [(lam, coeffs) for lam, coeffs in full.items() if len(lam) <= n]
                assert list(jack._jack_j_table(kap, n).items()) == want, (kap, n)


@pytest.mark.parametrize("alpha", [a, Fraction(1), Fraction(1, 2), Fraction(3)], ids=str)
def test_numeric_count_expansion_is_the_generic_one_restricted(alpha):
    for k in range(1, 7):
        for kap in partitions_of(k):
            for norm in ("C", "J", "P"):
                generic = jack.jack_expand(alpha, kap, norm, GENERIC).terms
                for n in range(len(kap), 5):
                    got = jack.jack_expand(alpha, kap, norm, n)
                    want = [(lam, c) for lam, c in generic.items() if len(lam) <= n]
                    assert (list(got.terms.items()), got.nvars) == (want, n), (kap, norm, n)


def test_hook_pole_is_the_same_at_every_count():
    # alpha = -1 zeroes the lower hook 1 + a of (2): C and P have a pole
    # there whatever the count, and J = (1 + a) m[2] + 2 m[1,1] is finite
    for n in (GENERIC, 1, 2, 3):
        for norm in ("C", "P"):
            with pytest.raises(PoleError):
                jack.jack_expand(Fraction(-1), (2,), norm, n)
        want = {} if n == 1 else {(1, 1): 2}
        assert jack.jack_expand(Fraction(-1), (2,), "J", n).terms == want, n


_POINTS = (
    [Fraction(-3, 2), Fraction(2, 3), Fraction(5, 4), Fraction(7)],
    [Fraction(2, 3), Fraction(0), Fraction(-1, 5), Fraction(3, 7)],
)


def _c_by_table(alpha, kappa, point):
    return eval_numeric(jack.jack_expand(alpha, kappa, "C", len(point)), point, alpha)


def _j_by_table(alpha, kappa, point):
    return eval_numeric(jack.jack_expand(alpha, kappa, "J", len(point)), point, alpha)


@pytest.mark.parametrize("alpha", [Fraction(1), Fraction(2), Fraction(1, 3), Fraction(5, 2)])
def test_point_values_equal_the_monomial_expansion(alpha):
    # the branching rule over horizontal strips against J's monomial table
    # summed at the same point, exactly, for every kappa of weight <= 10
    for m in range(1, 5):
        for point in _POINTS:
            j_at = jack.point_values(alpha, point[:m])
            for k in range(11):
                for kappa in partitions_of(k, max_len=m):
                    assert Fraction(*j_at(kappa)) == _j_by_table(alpha, kappa, point[:m]), (m, point, kappa)


@pytest.mark.parametrize("alpha", [Fraction(-1), Fraction(-1, 2), Fraction(-2, 3), Fraction(-3)])
def test_point_values_at_a_negative_alpha(alpha):
    # a vanishing hook can give a branching coefficient a pole that only the
    # sum cancels, so J is read from its table, one orbit sum per monomial,
    # and J has no pole.  A series reaches C_kappa's hooks through its
    # one-box step: at the point and at x I_m it raises the C table's
    # PoleError of the first kappa, in series order, whose hooks vanish
    for m, point in itertools.product(range(1, 5), _POINTS):
        point = point[:m]
        j_at = jack.point_values(alpha, point)
        first_pole = None
        for k in range(11):
            for kappa in partitions_of(k, max_len=m):
                assert Fraction(*j_at(kappa)) == _j_by_table(alpha, kappa, point), (m, kappa)
                if first_pole is None and not hook_products(alpha, kappa)[2]:
                    first_pole = kappa
        if first_pole is None:
            continue
        with pytest.raises(PoleError) as want:
            _c_by_table(alpha, first_pole, point)
        for arg in (("vec", point), ("xid", 1, m)):
            with pytest.raises(PoleError) as got:
                hypergeom.ghypergeom(alpha, [], [], arg, limit=10)
            assert str(got.value) == str(want.value), (m, arg)
