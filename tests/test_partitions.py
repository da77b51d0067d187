from fractions import Fraction

import pytest

from mops import jack
from mops import partitions as pt
from mops.errors import DomainError, PoleError
from mops.rational import ALPHA, N, RationalFunction, homogeneous, ratio

from oracles import box_hook_ratio_field, brute_subpartitions, hook_products_field

a = ALPHA


def test_partitions_of_small():
    assert pt.partitions_of(0) == [()]
    assert pt.partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_partitions_of_is_strictly_decreasing_lex():
    for k in range(1, 9):
        parts = pt.partitions_of(k)
        assert parts[0] == (k,)
        assert parts[-1] == (1,) * k
        assert all(parts[i] > parts[i + 1] for i in range(len(parts) - 1))


def test_partition_counts():
    # classical p(k) values up to 30
    known = {1: 1, 5: 7, 10: 42, 20: 627, 30: 5604}
    for k, count in known.items():
        assert len(pt.partitions_of(k)) == count


def test_partitions_of_negative_rejected():
    with pytest.raises(DomainError):
        pt.partitions_of(-1)
    with pytest.raises(DomainError):
        pt.partitions_of(3, max_len=-1)


@pytest.mark.parametrize("parts", [[2.5], [2.0, 1], [True], ["3"], "21"])
def test_as_partition_rejects_non_integer_parts(parts):
    # int() would truncate 2.5, read "3" and take True for 1
    with pytest.raises(DomainError):
        pt.as_partition(parts)


def test_partitions_of_max_len_filters_in_order():
    for k in range(14):
        for max_part in (None, 1, 2, 3):
            full = pt.partitions_of(k, max_part)
            for max_len in range(5):
                want = [kap for kap in full if len(kap) <= max_len]
                assert pt.partitions_of(k, max_part, max_len) == want, (k, max_part, max_len)
    # no parts at all: only the empty partition of 0
    assert pt.partitions_of(0, max_len=0) == [()]
    assert pt.partitions_of(5, max_len=0) == []


def test_subpartitions_examples():
    assert pt.subpartitions_of((1,)) == [(), (1,)]
    assert pt.subpartitions_of((2, 1)) == brute_subpartitions((2, 1))
    assert sorted(pt.subpartitions_of((2, 1))) == [(), (1,), (1, 1), (2,), (2, 1)]
    assert len(pt.subpartitions_of((3, 3, 3, 3, 3))) == 56


def test_subpartitions_brute_force():
    for kappa in [(3, 1), (2, 2, 1), (4,), (3, 2, 1)]:
        assert sorted(pt.subpartitions_of(kappa)) == brute_subpartitions(kappa)


def test_is_subpartition():
    assert pt.is_subpartition((), (3, 1))
    assert not pt.is_subpartition((2, 2), (3, 1))
    assert pt.is_subpartition((1, 1), (2, 1))


def test_compare_examples():
    assert pt.compare((3, 3), (4, 1, 1), "dominance") == pt.INCOMPARABLE
    assert pt.compare((2, 1), (3,), "dominance") == pt.LESS
    assert pt.compare((2, 2), (2, 1), "lexicographic") == pt.GREATER
    with pytest.raises(DomainError):
        pt.compare((2, 1), (2, 2), "dominance")


def test_dominance_refines_lexicographic():
    for k in range(1, 9):
        parts = pt.partitions_of(k)
        for lam in parts:
            for kap in parts:
                if lam == kap:
                    continue
                if pt.compare(lam, kap, "dominance") == pt.LESS:
                    assert lam < kap


def test_conjugate():
    assert pt.conjugate(()) == ()
    assert pt.conjugate((3, 1)) == (2, 1, 1)
    assert pt.conjugate((4, 2, 1)) == (3, 2, 1, 1)
    for k in range(9):
        for kap in pt.partitions_of(k):
            conj = pt.conjugate(kap)
            assert sum(conj) == sum(kap)
            assert pt.conjugate(conj) == kap


def test_arm_leg():
    assert pt.arm((3, 2), 1, 1) == 2 and pt.leg((3, 2), 1, 1) == 1
    assert pt.arm((3, 2), 2, 2) == 0 and pt.leg((3, 2), 2, 2) == 0
    assert pt.arm((2,), 1, 1) == 1 and pt.leg((2,), 1, 1) == 0
    with pytest.raises(DomainError):
        pt.arm((3, 2), 2, 3)


def test_arm_leg_transpose():
    for k in range(1, 9):
        for kap in pt.partitions_of(k):
            conj = pt.conjugate(kap)
            for i in range(1, len(kap) + 1):
                for j in range(1, kap[i - 1] + 1):
                    assert pt.arm(kap, i, j) == pt.leg(conj, j, i)


def test_hook_products_examples():
    c, cp, j = pt.hook_products(a, (2,))
    assert c == 2 * a**2 and cp == 1 + a and j == 2 * a**2 * (1 + a)
    c, cp, j = pt.hook_products(a, (1, 1))
    assert c == a * (1 + a) and cp == 2 and j == 2 * a * (1 + a)
    assert pt.hook_products(a, ()) == (1, 1, 1)


INT_ALPHAS = [Fraction(1), Fraction(2), Fraction(1, 4), Fraction(3, 2), Fraction(7, 3), Fraction(-2, 5), Fraction(-3)]


def _pole_message(alpha, kappa):
    return "alpha = %s is a pole of the hook products of %r" % (alpha, kappa)


def test_integer_hook_products_match_field_arithmetic():
    # the int products over a power of alpha's denominator against every
    # hook multiplied in the field, in the same canonical form; a vanishing
    # hook reads 0 (-2/5 and -3 have some up to weight 10)
    zeros = 0
    for k in range(11):
        for kappa in pt.partitions_of(k):
            alphas = INT_ALPHAS + [a] if 0 < k <= 7 else INT_ALPHAS
            for alpha in alphas:
                got = pt.hook_products(alpha, kappa)
                want = hook_products_field(alpha, kappa)
                assert got == want and repr(got) == repr(want), (alpha, kappa)
                zeros += not got[2]
    assert zeros


def test_integer_box_hook_ratio_matches_field_arithmetic():
    # the one-box ratio alpha j_pi / j_kappa in ints against the field loop
    # and against the whole hook products of kappa and its parent pi; where
    # the hooks of the box's row and column vanish it raises PoleError
    # naming alpha and kappa
    poles = 0
    for k in range(1, 11):
        for kappa in pt.partitions_of(k):
            parent = kappa[:-1] + (kappa[-1] - 1,) if kappa[-1] > 1 else kappa[:-1]
            alphas = INT_ALPHAS + [a] if k <= 7 else INT_ALPHAS
            for alpha in alphas:
                p, q = homogeneous(alpha)
                num, den = box_hook_ratio_field(alpha, kappa)
                j_kappa, j_parent = (hook_products_field(alpha, nu)[2] for nu in (kappa, parent))
                if j_parent:
                    # a hook the parent lacks lies in the box's row or column
                    assert (not den) == (not j_kappa), (alpha, kappa)
                if not den:
                    poles += 1
                    with pytest.raises(PoleError) as err:
                        pt._box_hook_ratio(p, q, kappa)
                    assert str(err.value) == _pole_message(alpha, kappa)
                    continue
                pair = pt._box_hook_ratio(p, q, kappa)
                if alpha is not a:
                    assert all(type(v) is int for v in pair), (alpha, kappa)
                got = ratio(*pair)
                want = num / den
                assert got == want and repr(got) == repr(want), (alpha, kappa)
                if j_kappa:
                    assert got == alpha * j_parent / j_kappa, (alpha, kappa)
    assert poles


@pytest.mark.parametrize(
    "alpha, kappa, upper_zero, lower_zero",
    [(Fraction(-1, 2), (2, 1), True, False), (Fraction(-1), (3, 1, 1), True, True),
     (Fraction(-2, 3), (3, 1, 1), True, False)],
)
def test_vanishing_hook_reads_zero_and_its_divisions_raise(alpha, kappa, upper_zero, lower_zero):
    c, cprime, j = pt.hook_products(alpha, kappa)
    assert (c == 0, cprime == 0, j == 0) == (upper_zero, lower_zero, True)
    dividing = [
        lambda: jack.jack_monomial_coefficients(alpha, kappa),
        lambda: jack.jack_identity_value(alpha, kappa, "C", 3),
        lambda: jack.normalization_factor("C", "J", alpha, kappa),
        lambda: pt._box_hook_ratio(*homogeneous(alpha), kappa),
    ]
    if lower_zero:
        dividing.append(lambda: jack.jack_expand(alpha, kappa, "P"))
    for call in dividing:
        with pytest.raises(PoleError) as err:
            call()
        assert str(err.value) == _pole_message(alpha, kappa)
    # the J expansion has no pole
    assert jack.jack_expand(alpha, kappa, "J").terms


def test_rho():
    assert pt.rho(a, (2,)) == 2
    assert pt.rho(a, (1, 1)) == -2 / a
    assert pt.rho(Fraction(1), (2, 1)) == 0


def test_rho_separates_dominated_pairs():
    # the recurrence denominators never vanish: rho differs on strictly
    # dominated pairs, symbolically and at sampled alphas
    samples = [Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)]
    for k in range(1, 9):
        parts = pt.partitions_of(k)
        for lam in parts:
            for kap in parts:
                if lam == kap:
                    continue
                if pt.compare(lam, kap, "dominance") != pt.LESS:
                    continue
                assert pt.rho(a, kap) != pt.rho(a, lam)
                for s in samples:
                    assert pt.rho(s, kap) != pt.rho(s, lam)


def test_serialize_roundtrip():
    # the CLI's comma form of a partition reads back as its tuple
    for text, kap in [("", ()), ("[]", ()), ("1", (1,)), ("3,2,1", (3, 2, 1)), (" [3, 2, 1] ", (3, 2, 1))]:
        assert pt.deserialize(text) == kap
