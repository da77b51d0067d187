"""Shifted factorials, the multivariate Gamma function, and generalized
binomial coefficients.

The binomial coefficients (kappa choose sigma) are rational functions of
alpha alone (no variable count, no normalization).  They are produced a
whole table at a time.  The contiguous coefficients (sigma^(i) choose
sigma), sigma^(i) being sigma with one more box in row i, are ratios of
hook products in which only the hooks of that box's row and column
change, so ``contiguous`` takes a product over those i - 1 + sigma_i
boxes alone.  The rest follow from the recurrence
sum_i (sigma^(i) choose sigma)(kappa choose sigma^(i)) =
(k - s)(kappa choose sigma)  solved top-down from (kappa choose kappa)=1.
"""

import math

from . import cache, partitions
from .errors import DomainError
from .rational import as_exact, homogeneous, ratio, undivided


def sfact(r, k):
    """Shifted factorial r (r+1) ... (r+k-1); empty product is 1."""
    if k < 0:
        raise DomainError("sfact needs a non-negative integer order")
    r = as_exact(r, "r")
    out = 1
    for i in range(k):
        out = out * (r + i)
    return out


def gsfact(alpha, r, kappa):
    """Generalized Pochhammer symbol prod_i (r - (i-1)/alpha)_{kappa_i}."""
    alpha = as_exact(alpha, "alpha")
    r = as_exact(r, "r")
    kappa = partitions.as_partition(kappa)
    out = 1
    for i0, part in enumerate(kappa):
        out = out * sfact(r - i0 / alpha, part)
    return out


def gsfact_skew(alpha, r, kappa, sigma):
    """Exact ratio (r)_kappa / (r)_sigma for sigma inside kappa."""
    alpha = as_exact(alpha, "alpha")
    r = as_exact(r, "r")
    kappa = partitions.as_partition(kappa)
    sigma = partitions.as_partition(sigma)
    if not partitions.is_subpartition(sigma, kappa):
        raise DomainError("skew Pochhammer needs sigma inside kappa")
    out = 1
    for i0, part in enumerate(kappa):
        low = sigma[i0] if i0 < len(sigma) else 0
        base = r - i0 / alpha
        for j in range(low, part):
            out = out * (base + j)
    return out


def mv_gamma(alpha, a, m):
    """Multivariate Gamma: pi^(m(m-1)/(2 alpha)) prod Gamma(a - (i-1)/alpha)."""
    return math.exp(log_mv_gamma(alpha, a, m))


def log_mv_gamma(alpha, a, m):
    alpha = float(alpha)
    a = float(a)
    if m < 1:
        raise DomainError("mv_gamma needs m >= 1")
    total = m * (m - 1) / (2.0 * alpha) * math.log(math.pi)
    for i in range(1, m + 1):
        x = a - (i - 1) / alpha
        if x <= 0 and abs(x - round(x)) < 1e-12:
            raise DomainError("Gamma pole at a - (i-1)/alpha = %g" % x)
        total += math.lgamma(x)
    return total


def _row_increment(sigma, i):
    """sigma with row i (1-based) incremented, or None if not a partition.

    sigma must be a canonical partition tuple; i may be any integer.
    """
    l = len(sigma)
    if i < 1 or i > l + 1:
        return None
    row = sigma[i - 1] if i <= l else 0
    if i >= 2 and sigma[i - 2] <= row:
        return None
    return sigma[: i - 1] + (row + 1,) + sigma[i:]


def contiguous(alpha, sigma, i):
    """(sigma^(i) choose sigma), the one-box binomial coefficient.

    The new box (i, c), c = sigma_i + 1, changes only the hooks of column c
    above row i and of row i left of c.  With leg l and arm a taken in
    sigma, the coefficient is

        prod_{r<i} (l_r + 2 + alpha a_r) / (l_r + 1 + alpha a_r)
        * prod_{j<=sigma_i} (l_j + alpha (2 + a_j)) / (l_j + alpha (1 + a_j)),

    r running over the boxes (r, c) and j over the boxes (i, j): the
    lower hooks of column c and the upper hooks of row i grow by one.
    A coefficient costs O(i + sigma_i + len(sigma)) operations: for a
    Fraction alpha = P / Q each factor u + alpha v is the int Q u + P v,
    the numerator and denominator are int products, and the one Fraction
    is formed at the end; a symbolic alpha takes them in its field.
    """
    return _contiguous_value(as_exact(alpha, "alpha"), partitions.as_partition(sigma), i)


@cache.memo
def _contiguous_value(alpha, sigma, i):
    return ratio(*_contiguous_terms(alpha, sigma, i))


@cache.memo
def _contiguous(alpha, sigma, i):
    """(sigma^(i) choose sigma) as the pair of ``rational.undivided``.

    For a Fraction alpha it is two ints, so a caller can sum several such
    ratios over one denominator; for a symbolic alpha it is (value, 1).
    """
    return undivided(*_contiguous_terms(alpha, sigma, i))


def _contiguous_terms(alpha, sigma, i):
    """(num, den), the row and column products of ``contiguous``."""
    if _row_increment(sigma, i) is None:
        raise DomainError("row %d of %r cannot be incremented" % (i, sigma))
    row = sigma[i - 1] if i - 1 < len(sigma) else 0
    # a hook u + alpha v is taken as Q u + P v with alpha = P / Q; num and
    # den have equally many, so the powers of Q cancel
    p, q = homogeneous(alpha)
    num = den = p**0
    # column c holds rows 1..i-1 of sigma, so (r, c) has leg i - 1 - r
    for r0 in range(i - 1):
        leg = i - 2 - r0
        arm = p * (sigma[r0] - row - 1)
        num = num * (q * (leg + 2) + arm)
        den = den * (q * (leg + 1) + arm)
    # (i, j) has leg #{t > i: sigma_t >= j}, which grows as j falls
    below = i
    for j in range(row, 0, -1):
        while below < len(sigma) and sigma[below] >= j:
            below += 1
        leg = q * (below - i)
        arm = row - j
        num = num * (leg + p * (2 + arm))
        den = den * (leg + p * (1 + arm))
    return num, partitions._hook_divisor(den, alpha, sigma)


def one_box_recurrence(alpha, kappa, divide):
    """Solve a downward one-box recurrence over the subpartitions of kappa.

    v_kappa = 1; then, going down in weight,
    v_sigma = divide(sigma, sum_i (sigma^(i) choose sigma) v_{sigma^(i)}),
    the sum running over the row increments sigma^(i) that have a value.
    Returns {sigma: v_sigma}, kappa first and then by decreasing weight.
    alpha and kappa must be canonical, as ``as_exact`` and
    ``partitions.as_partition`` leave them.
    """
    table = {kappa: alpha**0}
    # by decreasing weight, so every sigma^(i) comes before sigma; kappa
    # has no row increment inside kappa and keeps its seed
    for sigma in sorted(partitions.subpartitions_of(kappa), key=partitions.weight, reverse=True):
        total = None
        for i in range(1, len(sigma) + 2):
            up_val = table.get(_row_increment(sigma, i))
            if up_val is None:
                continue
            term = _contiguous_value(alpha, sigma, i) * up_val
            total = term if total is None else total + term
        if total is not None:
            table[sigma] = divide(sigma, total)
    return table


def gbinomial_table(alpha, kappa):
    """All (kappa choose sigma) for sigma inside kappa, keyed by sigma."""
    return _gbinomial_table(as_exact(alpha, "alpha"), partitions.as_partition(kappa))


@cache.memo
def _gbinomial_table(alpha, kappa):
    k = partitions.weight(kappa)
    return one_box_recurrence(
        alpha, kappa, lambda sigma, total: total / (k - partitions.weight(sigma))
    )


def gbinomial(alpha, kappa, sigma):
    """Generalized binomial coefficient; 0 when sigma is not inside kappa."""
    kappa = partitions.as_partition(kappa)
    sigma = partitions.as_partition(sigma)
    if not partitions.is_subpartition(sigma, kappa):
        return as_exact(alpha, "alpha") * 0
    return gbinomial_table(alpha, kappa)[sigma]
