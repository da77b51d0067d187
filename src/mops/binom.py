"""Shifted factorials, the multivariate Gamma function, and generalized
binomial coefficients.

Every generalized Pochhammer ratio is one product over the boxes (l, c)
of kappa/sigma, ``_box_product``: prod (x + alpha (c-1) - (l-1)) =
alpha^(k-s) (x/alpha)_kappa / (x/alpha)_sigma, taken by
``rational.linear_product`` when x is a number: in ints for a Fraction
alpha, as linear factors with no gcd for a symbolic one.
``gsfact_skew`` and ``gsfact`` read it at x = alpha r, and the identity
values J_kappa(I_m) (Stanley 1989) and their ratios at x = m.

The binomial coefficients (kappa choose sigma) are rational functions of
alpha alone (no variable count, no normalization).  They are produced a
whole table at a time.  The contiguous coefficients (sigma^(i) choose
sigma), sigma^(i) being sigma with one more box in row i, are ratios of
hook products in which only the hooks of that box's row and column
change, so ``contiguous`` takes a product over those i - 1 + sigma_i
boxes alone, one ``rational.linear_product`` of their hooks.  The rest
follow from the recurrence sum_i (sigma^(i) choose sigma)(kappa choose
sigma^(i)) = (k - s)(kappa choose sigma), solved top-down from
(kappa choose kappa) = 1.  At a symbolic alpha the table is
``rational.Factored`` throughout, each entry one sum added up once, so
no gcd runs: the memo holds it factored for ``orthopoly.hermite2``,
which multiplies and sums the entries as they are, and
``gbinomial_table`` converts it to the field once per call.  At x = n and
a symbolic alpha the box factors n + alpha (c-1) - (l-1) are
``rational.in_n``'s (``_n_boxes``), so ``_box_product``'s field branch
serves an x with another parameter, and x = n at a numeric alpha.
"""

import math
from fractions import Fraction

from . import cache, partitions
from .errors import DomainError
from .rational import (
    Factored,
    RationalFunction,
    as_exact,
    as_finite,
    as_int,
    factored,
    field_value,
    homogeneous,
    linear_product,
    ratio,
)


def sfact(r, k):
    """Shifted factorial r (r+1) ... (r+k-1); empty product is 1."""
    r = as_exact(r, "r")
    out = 1
    for i in range(as_int(k, "the order k")):
        out = out * (r + i)
    return out


def _as_alpha(alpha):
    alpha = as_exact(alpha, "alpha")
    if not alpha:
        raise DomainError("alpha = 0 is outside the Jack parameter domain")
    return alpha


def gsfact(alpha, r, kappa):
    """Generalized Pochhammer symbol prod_i (r - (i-1)/alpha)_{kappa_i}."""
    return gsfact_skew(alpha, r, kappa, ())


def gsfact_skew(alpha, r, kappa, sigma):
    """Exact ratio (r)_kappa / (r)_sigma for sigma inside kappa."""
    alpha = _as_alpha(alpha)
    r = as_exact(r, "r")
    kappa = partitions.as_partition(kappa)
    sigma = partitions.as_partition(sigma)
    if not partitions.is_subpartition(sigma, kappa):
        raise DomainError("skew Pochhammer needs sigma inside kappa")
    shift = partitions.weight(kappa) - partitions.weight(sigma)
    return _box_product(alpha, alpha * r, kappa, sigma) / alpha**shift


def _box_product(alpha, x, kappa, sigma):
    """prod over the boxes (l, c) of kappa/sigma of x + alpha (c-1) - (l-1).

    It is alpha^(k-s) (x/alpha)_kappa / (x/alpha)_sigma; at sigma = () and
    x = m it is J_kappa(I_m) (Stanley 1989).  For x = X / Y a number, a
    factor is (X - Y (l-1) + alpha Y (c-1)) / Y, one pair of
    ``rational.linear_product``.  A symbolic x takes the factors, with
    alpha = P / Q, as (Q x + P (c-1) - Q (l-1)) / Q in its field.  alpha,
    kappa and sigma must be canonical, sigma inside kappa.
    """
    if not isinstance(x, RationalFunction):
        return ratio(*linear_product(alpha, *_box_pairs(x, kappa, sigma)))
    rows = [(l0, range(sigma[l0] if l0 < len(sigma) else 0, part)) for l0, part in enumerate(kappa)]
    p, q = homogeneous(alpha)
    num, boxes = x**0, 0
    for l0, columns in rows:
        base = q * x - q * l0
        for c0 in columns:
            num = num * (base + p * c0)
        boxes += len(columns)
    return ratio(num, q**boxes)


def _boxes(kappa, sigma):
    """(l - 1, c - 1) for the boxes (l, c) of kappa/sigma, row by row."""
    return [(l0, c0) for l0, part in enumerate(kappa) for c0 in range(sigma[l0] if l0 < len(sigma) else 0, part)]


def _box_pairs(x, kappa, sigma):
    """``_box_product`` at a number x = X / Y as ``rational.linear_product``'s
    (num_pairs, den_pairs, scale).

    A box (l, c) of kappa/sigma gives the pair (X - Y (l-1), Y (c-1)), no
    pair divides, and scale is 1 / Y^|kappa/sigma|.
    """
    big_x, y = homogeneous(x)
    pairs = [(big_x - y * l0, y * c0) for l0, c0 in _boxes(kappa, sigma)]
    return pairs, (), Fraction(1, y ** len(pairs))


def _n_boxes(kappa, sigma):
    """``_box_product`` at x = n as ``rational.in_n``'s boxes: the pair (1 - l, c - 1)
    is the factor n + alpha (c-1) - (l-1) of the box (l, c) of kappa/sigma."""
    return [(-l0, c0) for l0, c0 in _boxes(kappa, sigma)]


def mv_gamma(alpha, a, m):
    """Multivariate Gamma: pi^(m(m-1)/(2 alpha)) prod Gamma(a - (i-1)/alpha)."""
    return math.exp(log_mv_gamma(alpha, a, m))


def log_mv_gamma(alpha, a, m):
    alpha = float(as_finite(alpha, "alpha"))
    if alpha <= 0:
        raise DomainError("alpha must be > 0, got %r" % alpha)
    a = float(as_finite(a, "a"))
    m = as_int(m, "m", 1)
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
    A coefficient costs O(i + sigma_i + len(sigma)) operations, once,
    in ``rational.linear_product``: for a Fraction alpha = P / Q each
    factor u + alpha v is the int Q u + P v, ``_contiguous`` keeps the two
    int products, and this Fraction is the one division; at a symbolic
    alpha the hooks both products share cancel as factors, with no gcd.
    """
    p, q = homogeneous(as_exact(alpha, "alpha"))
    return field_value(ratio(*_contiguous(p, q, partitions.as_partition(sigma), i)))


@cache.memo
def _contiguous(p, q, sigma, i):
    """(sigma^(i) choose sigma) as the pair of ``rational.linear_product``.

    alpha = P / Q comes as ``homogeneous(alpha)``, which the callers hold:
    two ints key the table without hashing a Fraction at every box.  For
    a Fraction alpha the pair is two ints, so a caller can sum several such
    ratios over one denominator; for a symbolic alpha it is (value, 1),
    the value a ``rational.Factored`` of the hooks.
    """
    if _row_increment(sigma, i) is None:
        raise DomainError("row %d of %r cannot be incremented" % (i, sigma))
    row = sigma[i - 1] if i - 1 < len(sigma) else 0
    num, den = [], []
    # column c holds rows 1..i-1 of sigma, so (r, c) has leg i - 1 - r
    for r0 in range(i - 1):
        arm = sigma[r0] - row - 1
        num.append((i - r0, arm))
        den.append((i - 1 - r0, arm))
    # (i, j) has leg #{t > i: sigma_t >= j}, which grows as j falls
    below = i
    for j in range(row, 0, -1):
        while below < len(sigma) and sigma[below] >= j:
            below += 1
        num.append((below - i, 2 + row - j))
        den.append((below - i, 1 + row - j))
    if p.__class__ is not int:
        return factored(p, num, den), 1
    pair = linear_product((p, q), num, den)
    if not pair[1]:
        partitions._hook_divisor(0, (p, q), sigma)  # raises PoleError
    return pair


def one_box_recurrence(alpha, kappa, divisor):
    """Solve a downward one-box recurrence over the subpartitions of kappa.

    v_kappa = 1; then, going down,
    v_sigma = sum_i (sigma^(i) choose sigma) v_{sigma^(i)} / divisor(sigma),
    the sum running over the row increments sigma^(i) inside kappa.
    Returns {sigma: v_sigma}, kappa first and then in decreasing
    lexicographic order.  alpha and kappa must be canonical, as
    ``as_exact`` and ``partitions.as_partition`` leave them.  As in
    ``orthopoly.hermite``, for a Fraction alpha each sum is formed as ints
    over one unreduced denominator from the pairs of ``_contiguous`` and
    v_sigma is one Fraction.  At a symbolic alpha the coefficients are
    ``rational.Factored`` over the int 1: each sum is held as its terms
    and added up once, at the division by the divisor, a number or a
    Factored value, and the values are returned factored, in lowest
    terms; a divisor with another parameter (Jacobi's at a symbolic g1,
    g2 or n) takes the sum to the field.
    """
    p, q = homogeneous(alpha)
    table = {kappa: alpha**0 if p.__class__ is int else factored(alpha)}
    # reversed lexicographic order puts every sigma^(i) before sigma;
    # kappa, the last subpartition, keeps its seed
    for sigma in partitions.subpartitions_of(kappa)[-2::-1]:
        num, den = 0, 1
        for i in range(1, len(sigma) + 2):
            up_val = table.get(_row_increment(sigma, i))
            if up_val is None:
                continue
            coeff_num, coeff_den = _contiguous(p, q, sigma, i)
            value_num, value_den = homogeneous(up_val)
            term_num, term_den = coeff_num * value_num, coeff_den * value_den
            num, den = num * term_den + term_num * den, den * term_den
        table[sigma] = ratio(num, den * divisor(sigma))
    if p.__class__ is not int:
        table = {sigma: value.lowest() if value.__class__ is Factored else value for sigma, value in table.items()}
    return table


def gbinomial_table(alpha, kappa):
    """{sigma: (kappa choose sigma)} for sigma inside kappa, in decreasing lexicographic order.

    At a symbolic alpha the memo holds the ``rational.Factored`` table,
    which is converted here, once per call.
    """
    alpha = as_exact(alpha, "alpha")
    table = _gbinomial_table(alpha, partitions.as_partition(kappa))
    if isinstance(alpha, RationalFunction):
        return {sigma: value.to_field() for sigma, value in table.items()}
    return table


@cache.memo
def _gbinomial_table(alpha, kappa):
    """The table of ``gbinomial_table``, factored at a symbolic alpha."""
    k = partitions.weight(kappa)
    return one_box_recurrence(alpha, kappa, lambda sigma: k - partitions.weight(sigma))


def gbinomial(alpha, kappa, sigma):
    """Generalized binomial coefficient; 0 when sigma is not inside kappa.

    Only this entry of the factored table is converted.
    """
    alpha = as_exact(alpha, "alpha")
    kappa = partitions.as_partition(kappa)
    sigma = partitions.as_partition(sigma)
    if not partitions.is_subpartition(sigma, kappa):
        return alpha * 0
    return field_value(_gbinomial_table(alpha, kappa)[sigma])
