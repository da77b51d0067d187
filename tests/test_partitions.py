from fractions import Fraction

import pytest

from mops import partitions as pt
from mops.errors import DomainError
from mops.rational import ALPHA

from oracles import brute_subpartitions

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
