"""Partitions, their orderings and diagram statistics.

A partition is a tuple of positive ints in non-increasing order; the empty
tuple is the partition of 0.  Trailing zeros are never stored, all
operations pad logically.  Squares of the diagram are addressed with
1-based (row, column) indices.
"""

from . import cache
from .errors import DomainError, PoleError
from .rational import as_exact, as_int, linear_product, ratio, read_int

LESS = "less"
EQUAL = "equal"
GREATER = "greater"
INCOMPARABLE = "incomparable"


def as_partition(parts):
    """Validate and canonicalize an iterable of parts into a tuple."""
    kappa = tuple(as_int(p, "a partition part") for p in parts)
    while kappa and kappa[-1] == 0:
        kappa = kappa[:-1]
    for i, p in enumerate(kappa):
        if p < 1:
            raise DomainError("partition parts must be positive: %r" % (parts,))
        if i and kappa[i - 1] < p:
            raise DomainError("partition parts must be non-increasing: %r" % (parts,))
    return kappa


def weight(kappa):
    return sum(kappa)


def partitions_of(k, max_part=None, max_len=None):
    """All partitions of k in strictly decreasing lexicographic order.

    Starts with [k] and ends with [1^k]; k = 0 yields the empty partition.
    ``max_part`` restricts the first (largest) part and ``max_len`` the
    number of parts; a branch stops as soon as its remainder cannot fit.
    """
    k = as_int(k, "k")
    bound = k if max_part is None else min(as_int(max_part, "max_part"), k)
    result = []

    def descend(remaining, largest, slots, prefix):
        if remaining == 0:
            result.append(tuple(prefix))
            return
        for part in range(min(largest, remaining), 0, -1):
            if part * slots < remaining:
                break
            prefix.append(part)
            descend(remaining - part, part, slots - 1, prefix)
            prefix.pop()

    descend(k, bound, k if max_len is None else as_int(max_len, "max_len"), [])
    return result


def subpartitions_of(kappa):
    """All sigma with sigma_i <= kappa_i for every i, kappa included.

    The list is in increasing lexicographic order: the walk lists each
    prefix before its extensions and tries the next part in ascending order.
    """
    return _subpartitions_of(as_partition(kappa))


@cache.memo
def _subpartitions_of(kappa):
    result = []

    def descend(i, prev, prefix):
        result.append(tuple(prefix))
        if i == len(kappa):
            return
        for part in range(1, min(kappa[i], prev) + 1):
            prefix.append(part)
            descend(i + 1, part, prefix)
            prefix.pop()

    descend(0, kappa[0] if kappa else 0, [])
    return result


def is_subpartition(sigma, kappa):
    sigma = as_partition(sigma)
    kappa = as_partition(kappa)
    if len(sigma) > len(kappa):
        return False
    return all(s <= k for s, k in zip(sigma, kappa))


def compare(lam, kappa, order="lexicographic"):
    """Compare two partitions; returns one of less/equal/greater/incomparable.

    Lexicographic comparison is total.  Dominance compares prefix sums and
    is only defined for equal weights (unequal weights raise DomainError);
    it may return ``incomparable``.
    """
    lam = as_partition(lam)
    kappa = as_partition(kappa)
    if order == "lexicographic":
        if lam == kappa:
            return EQUAL
        return LESS if lam < kappa else GREATER
    if order != "dominance":
        raise DomainError("unknown order: %r" % (order,))
    if weight(lam) != weight(kappa):
        raise DomainError("dominance compares only equal-weight partitions")
    if lam == kappa:
        return EQUAL
    le = ge = True
    acc_l = acc_k = 0
    for i in range(max(len(lam), len(kappa))):
        acc_l += lam[i] if i < len(lam) else 0
        acc_k += kappa[i] if i < len(kappa) else 0
        if acc_l > acc_k:
            le = False
        if acc_l < acc_k:
            ge = False
    if le:
        return LESS
    if ge:
        return GREATER
    return INCOMPARABLE


def conjugate(kappa):
    kappa = as_partition(kappa)
    if not kappa:
        return ()
    cols = [0] * kappa[0]
    for part in kappa:
        for j in range(part):
            cols[j] += 1
    return tuple(cols)


def _check_square(kappa, i, j):
    if i < 1 or i > len(kappa) or j < 1 or j > kappa[i - 1]:
        raise DomainError("square (%d,%d) outside diagram of %r" % (i, j, kappa))


def arm(kappa, i, j):
    """Number of squares to the right of (i, j)."""
    kappa = as_partition(kappa)
    _check_square(kappa, i, j)
    return kappa[i - 1] - j


def leg(kappa, i, j):
    """Number of squares below (i, j)."""
    kappa = as_partition(kappa)
    _check_square(kappa, i, j)
    return sum(1 for r in range(i, len(kappa)) if kappa[r] >= j)


def upper_hook(alpha, kappa, i, j):
    """leg + alpha*(1 + arm) at the square (i, j)."""
    return leg(kappa, i, j) + as_exact(alpha, "alpha") * (1 + arm(kappa, i, j))


def lower_hook(alpha, kappa, i, j):
    """leg + 1 + alpha*arm at the square (i, j)."""
    return leg(kappa, i, j) + 1 + as_exact(alpha, "alpha") * arm(kappa, i, j)


def hook_products(alpha, kappa):
    """(c, c', j): products of upper hooks, lower hooks, and their product.

    Empty partition gives (1, 1, 1).
    """
    return _hook_products(as_exact(alpha, "alpha"), as_partition(kappa))


@cache.memo
def _hook_products(alpha, kappa):
    upper, lower = _hook_pairs(kappa)
    return tuple(ratio(*linear_product(alpha, pairs, ())) for pairs in (upper, lower, upper + lower))


@cache.memo
def _hook_pairs(kappa):
    """(upper, lower): kappa's upper hooks l + alpha (1 + a) and lower hooks
    l + 1 + alpha a as the int pairs (u, v) of ``rational.linear_product``.

    They are free of alpha, so one entry serves every alpha.
    """
    upper, lower = [], []
    for i0, part in enumerate(kappa):
        # the rows from i0 up to below reach column j0, so leg + 1 = below - i0
        below = len(kappa)
        for j0 in range(part):
            while kappa[below - 1] <= j0:
                below -= 1
            leg1, arm1 = below - i0, part - j0
            upper.append((leg1 - 1, arm1))
            lower.append((leg1, arm1 - 1))
    return tuple(upper), tuple(lower)


def _hook_divisor(value, alpha, kappa):
    """value, a product of hooks of kappa about to divide; PoleError if it is 0.

    alpha may come as the pair (P, Q) of ``homogeneous``: it is read only
    for the message.
    """
    if not value:
        if isinstance(alpha, tuple):
            alpha = ratio(*alpha)
        raise PoleError("alpha = %s is a pole of the hook products of %r" % (alpha, kappa))
    return value


def _box_hook_ratio(p, q, kappa):
    """(num, den): num / den = alpha j_pi / j_kappa, one box's hook ratio.

    alpha = P / Q comes as the pair (p, q) of ``homogeneous``, split once
    per layer by the series step.  pi is kappa less its last box (l, c):
    l = len(kappa), c = kappa_l.  The box changes only the hooks of row l
    and of column c:

        j_kappa / j_pi = alpha c (1 + alpha (c-1)) prod_{r<l}
            (h + alpha (1+a_r)) (h + 1 + alpha a_r)
            / ((h - 1 + alpha (1+a_r)) (h + alpha a_r)),

    with h = l - r and a_r = kappa_r - c.  Each factor u + alpha v is
    taken as Q u + P v; den has one such factor more than num, so

        num = Q prod_{r<l} (Q (h-1) + P (1+a_r)) (Q h + P a_r),
        den = c (Q + P (c-1)) prod_{r<l} (Q h + P (1+a_r)) (Q (h+1) + P a_r),

    ints for a Fraction alpha and field elements for a symbolic one
    (P = alpha, Q = 1).  The pair is returned undivided, so a caller can
    multiply more factors into it before its one division.  kappa must be
    non-empty; PoleError is raised when den is 0.
    """
    l = len(kappa)
    c = kappa[-1]
    num = q
    den = c * (q + p * (c - 1))
    for r0 in range(l - 1):
        h = l - 1 - r0
        arm = p * (kappa[r0] - c)
        num = num * ((q * (h - 1) + p + arm) * (q * h + arm))
        den = den * ((q * h + p + arm) * (q * (h + 1) + arm))
    return num, _hook_divisor(den, (p, q), kappa)


def rho(alpha, kappa):
    """sum_i kappa_i * (kappa_i - 1 - (2/alpha)(i-1))."""
    alpha = as_exact(alpha, "alpha")
    kappa = as_partition(kappa)
    if not alpha:
        raise DomainError("rho undefined at alpha = 0")
    two_over = 2 / alpha
    total = 0
    for i, part in enumerate(kappa):
        total = total + part * (part - 1) - two_over * (part * i)
    return total


def z_aut(lam):
    """z_lambda = prod over distinct part values v of mult! * v^mult."""
    lam = as_partition(lam)
    z = 1
    mult = {}
    for part in lam:
        mult[part] = mult.get(part, 0) + 1
    for v, m in mult.items():
        fact = 1
        for t in range(2, m + 1):
            fact *= t
        z *= fact * v**m
    return z


def deserialize(text):
    text = text.strip()
    if text in ("", "[]"):
        return ()
    try:
        parts = [read_int(p, "a partition part") for p in text.strip("[]").split(",")]
    except DomainError:
        raise DomainError("partition parts must be integers: %r" % text) from None
    return as_partition(parts)
