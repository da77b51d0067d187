import math
import pathlib
from fractions import Fraction

import pytest

from mops import binom
from mops.errors import DomainError
from mops.partitions import is_subpartition, partitions_of, subpartitions_of, weight
from mops.rational import ALPHA, GAMMA, N, R, homogeneous

from oracles import contiguous_all_boxes, gbinomial_field, gbinomial_from_definition, gsfact_by_rows
from test_symfun import _referrers

a = ALPHA


def test_sfact():
    assert binom.sfact(a, 0) == 1
    assert binom.sfact(a, 2) == a * (a + 1)
    assert binom.sfact(3, 3) == 60


def test_gsfact():
    assert binom.gsfact(a, a, (2,)) == a * (a + 1)
    assert binom.gsfact(a, a, (1, 1)) == a * (a - 1 / a)
    m_over = N / a
    expected = m_over * (m_over + 1) * (m_over - 1 / a)
    assert binom.gsfact(a, m_over, (2, 1)) == expected
    # symbolic r flows through (used by the Hermite limit formula)
    assert binom.gsfact(a, R + 1, (1,)) == R + 1


def test_gsfact_skew_matches_ratio():
    r = GAMMA + 2
    for kappa in [(3, 1), (2, 2), (4, 2, 1)]:
        for sigma in subpartitions_of(kappa):
            full = binom.gsfact(a, r, kappa)
            part = binom.gsfact(a, r, sigma)
            assert binom.gsfact_skew(a, r, kappa, sigma) * part == full


def test_gsfact_matches_the_row_products():
    # the box product, homogeneous in alpha and r, against one shifted
    # factorial per row in the field
    alphas = (Fraction(1), Fraction(2, 3), Fraction(-3, 2), Fraction(-1, 2), a)
    rs = (Fraction(0), Fraction(5, 2), Fraction(-7, 3), N, GAMMA + 1 / a, R * a - 2)
    for alpha in alphas:
        for r in rs:
            for k in range(6):
                for kappa in partitions_of(k):
                    assert binom.gsfact(alpha, r, kappa) == gsfact_by_rows(alpha, r, kappa), (alpha, r, kappa)


@pytest.mark.parametrize("alpha", [0, Fraction(0), ALPHA - ALPHA])
def test_gsfact_refuses_alpha_zero(alpha):
    for kappa in ((), (2,), (2, 1)):
        with pytest.raises(DomainError, match="alpha = 0"):
            binom.gsfact(alpha, 1, kappa)
        with pytest.raises(DomainError, match="alpha = 0"):
            binom.gsfact_skew(alpha, 1, kappa, ())


def test_box_product_readers():
    # one product over the boxes of kappa/sigma gives every generalized
    # Pochhammer ratio: the skew symbol, the identity values and their ratios
    src = pathlib.Path(binom.__file__).parent
    found = set()
    for path in sorted(src.glob("*.py")):
        found |= _referrers(path.read_text(), path.stem, "_box_product")
    assert found == {"binom.gsfact_skew", "jack.jack_identity_value", "orthopoly._identity_ratio"}


def test_mv_gamma():
    assert abs(binom.mv_gamma(1.0, 1.0, 1) - 1.0) < 1e-12
    assert abs(binom.mv_gamma(2.0, 1.5, 1) - math.sqrt(math.pi) / 2) < 1e-12
    # exponent of pi is m(m-1)/(2 alpha) = 1 here: Gamma(2) Gamma(1) pi
    assert abs(binom.mv_gamma(1.0, 2.0, 2) - math.pi) < 1e-12
    with pytest.raises(DomainError):
        binom.mv_gamma(1.0, 0.0, 1)


def test_contiguous_examples():
    assert binom.contiguous(a, (), 1) == 1
    assert binom.contiguous(a, (1,), 1) == 2  # univariate (2 choose 1)
    assert binom.contiguous(a, (1,), 2) == 2  # (kappa choose [1]) = |kappa|
    with pytest.raises(DomainError):
        binom.contiguous(a, (1, 1), 2)  # (1,2) is not a partition
    with pytest.raises(DomainError):
        binom.contiguous(a, (2, 2), 4)


def test_contiguous_matches_all_boxes_formula():
    # the row-and-column product against the product over every square,
    # exactly and in the same canonical form
    numeric = [Fraction(1), Fraction(2), Fraction(1, 4), Fraction(3, 2)]
    for k in range(12):
        alphas = numeric + [a] if k <= 8 else numeric
        for sigma in partitions_of(k):
            padded = sigma + (0,)
            for i in range(1, len(sigma) + 3):
                if i > len(padded) or (i > 1 and padded[i - 2] == padded[i - 1]):
                    for alpha in alphas:
                        with pytest.raises(DomainError):
                            binom.contiguous(alpha, sigma, i)
                    continue
                for alpha in alphas:
                    if alpha is not a:  # the undivided pair the Hermite recurrence sums
                        assert all(type(v) is int for v in binom._contiguous(*homogeneous(alpha), sigma, i))
                    got = binom.contiguous(alpha, sigma, i)
                    want = contiguous_all_boxes(alpha, sigma, i)
                    assert got == want and repr(got) == repr(want), (alpha, sigma, i)


def test_gbinomial_examples():
    assert binom.gbinomial(a, (3, 1), (3, 1)) == 1
    assert binom.gbinomial(a, (2, 1), (2, 2)) == 0
    assert binom.gbinomial(a, (2,), (1,)) == 2
    assert binom.gbinomial(a, (2,), ()) == 1


def test_choose_one_is_weight():
    for k in range(1, 9):
        for kap in partitions_of(k):
            assert binom.gbinomial(a, kap, (1,)) == k


def test_vanishing_iff_not_subpartition():
    for k in range(1, 7):
        for kap in partitions_of(k):
            subs = set(subpartitions_of(kap))
            for s in range(0, k + 1):
                for sig in partitions_of(s):
                    value = binom.gbinomial(a, kap, sig)
                    if sig in subs:
                        assert value != 0, (kap, sig)
                    else:
                        assert value == 0, (kap, sig)


def test_one_box_down_support():
    # for |sigma| = |kappa| - 1 the coefficient is nonzero exactly when
    # sigma is kappa with one part decremented
    for k in range(2, 7):
        for kap in partitions_of(k):
            downs = set()
            for i in range(len(kap)):
                lowered = list(kap)
                lowered[i] -= 1
                cand = tuple(p for p in lowered if p)
                if cand == tuple(sorted(cand, reverse=True)):
                    downs.add(cand)
            for sig in partitions_of(k - 1):
                value = binom.gbinomial(a, kap, sig)
                assert (value != 0) == (sig in downs and is_subpartition(sig, kap))


def test_definition_oracle_two_variable_counts():
    # the defining shifted-argument expansion, at m = l(kappa) and m = |kappa|
    for kap in [(2,), (1, 1), (2, 1), (3,), (2, 2), (3, 1), (2, 1, 1)]:
        for sig in subpartitions_of(kap):
            expected = binom.gbinomial(a, kap, sig)
            for m in {len(kap), weight(kap)}:
                assert gbinomial_from_definition(a, kap, sig, m) == expected


def test_normalization_independence():
    # recompute (kappa choose sigma) from J and P normalized expansions
    from mops import jack, m2jack
    from mops.symfun import SymExpr, _distinct_rearrangements
    import itertools

    from oracles import binomial_int

    def from_norm(norm, kappa, sigma, m):
        e = jack.jack_expand(a, kappa, norm, m)
        shifted = {}
        for part, coeff in e.terms.items():
            for vec in _distinct_rearrangements(part, m):
                choices = [[(t, binomial_int(x, t)) for t in range(x + 1)] for x in vec]
                for combo in itertools.product(*choices):
                    exps = tuple(t for t, _ in combo)
                    mult = 1
                    for _, b in combo:
                        mult *= b
                    shifted[exps] = shifted.get(exps, 0) + coeff * mult
        terms = {}
        for vec, coeff in shifted.items():
            if tuple(sorted(vec, reverse=True)) == vec:
                terms[tuple(x for x in vec if x)] = coeff
        in_c = m2jack(a, SymExpr("m", terms, m), m)
        # convert target back to the same normalization before reading off
        c_sig = in_c.coefficient(sigma) * jack.normalization_factor("C", norm, a, sigma)
        v_kappa = jack.jack_identity_value(a, kappa, norm, m)
        v_sigma = jack.jack_identity_value(a, sigma, norm, m)
        return c_sig * v_sigma / v_kappa

    for kap in [(2, 1), (3,), (2, 2)]:
        for sig in subpartitions_of(kap):
            expected = binom.gbinomial(a, kap, sig)
            m = weight(kap)
            assert from_norm("J", kap, sig, m) == expected
            assert from_norm("P", kap, sig, m) == expected


def test_gbinomial_rational_in_alpha_only():
    value = binom.gbinomial(a, (3, 2), (2, 1))
    assert value.free_parameters() in ((), ("a",))
    numeric = binom.gbinomial(Fraction(2), (3, 2), (2, 1))
    assert value.substitute({"a": 2}).to_fraction() == numeric


@pytest.mark.parametrize("alpha", [Fraction(1), Fraction(2), Fraction(1, 4), Fraction(3, 2)])
def test_numeric_gbinomial_table_is_the_symbolic_one_substituted(alpha):
    # the int sums over one denominator against the field's own arithmetic
    for k in range(7):
        for kap in partitions_of(k):
            sym = binom.gbinomial_table(a, kap)
            num = binom.gbinomial_table(alpha, kap)
            assert list(num) == list(sym) and list(num)[0] == kap
            for sig, value in num.items():
                assert type(value) is Fraction, (kap, sig)
                assert sym[sig].substitute({"a": alpha}).to_fraction() == value, (alpha, kap, sig)


@pytest.mark.parametrize(
    "alpha, top", [(ALPHA, 7), (-ALPHA, 7), (3 * ALPHA / 2 + 1, 6), (ALPHA**2, 5), (1 / ALPHA, 5)], ids=repr
)
def test_factored_table_matches_the_field_recurrence(alpha, top):
    # every kappa with |kappa| <= top: the factored recurrence, converted
    # once per entry, against the recurrence with every sum in the field
    for k in range(top + 1):
        for kappa in partitions_of(k):
            got = binom.gbinomial_table(alpha, kappa)
            want = gbinomial_field(alpha, kappa)
            assert got.keys() == want.keys()
            assert all(got[sigma].text() == want[sigma].text() for sigma in want), kappa
