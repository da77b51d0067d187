"""Jack polynomials via the Laplace-Beltrami recurrence, over Z[alpha].

C (whose partitions of k sum to (x_1 + ... + x_n)^k), J and P are each a
scalar multiple of J.  The monomial coefficients do not depend on the
number of variables, so for a numeric count n the table is built over at
most n parts, and every n >= |kappa| shares the generic table.

The recurrence runs in the J normalization, whose monomial coefficients
are polynomials in alpha with non-negative integer coefficients (Knop &
Sahi, "A recursion and a combinatorial formula for Jack polynomials",
Invent. Math. 128, 1997).  It walks the partitions of |kappa| with parts
at most kappa_1 and at most ``length`` parts downward in lexicographic
order.  Each lambda has the moves (i < j, 1 <= t <= lambda_j) to mu =
sort(lambda + t e_i - t e_j); a move adds no part and raises lambda in
dominance order, so only lambda below kappa reach the table.  Every move
whose mu is in the table adds (lambda_i - lambda_j + 2t) to the weight
of J_mu.  The moves between rows holding the same part values a >= b give
one mu, so each (a, b, t) is taken once and counted m_a m_b times, or
m_a (m_a - 1)/2 times when a = b, m_a being the multiplicity of a.  The
weighted sum times 2/alpha is divided by rho_kappa - rho_lambda; times
alpha that divisor is the integer linear polynomial p alpha - q with
p = A_kappa - A_lambda > 0 and q = 2 (B_kappa - B_lambda), where
A = sum kappa_i (kappa_i - 1) and B = sum (i-1) kappa_i.  So every step
is an exact synthetic division of an int list by a linear factor; no gcd.

The integer table is free of alpha and memoized per (kappa, length).  A
table at a Fraction alpha evaluates each entry once by Horner's rule, in
ints over one power of the denominator, and scales it by the
normalization's one factor of J (``_from_j``): alpha^k k! / j_kappa for
C, 1 for J and 1 / c'_kappa for P, c' the product of lower hooks.  The
factor is one ``rational.linear_product`` of the hooks.  At a symbolic
alpha each entry is the ``rational.Factored`` value J's int list times
the factor's hooks as linear keys, which cancel (alpha^k against the
upper hooks alpha (1 + a) of leg 0) with no gcd; it is converted to the
field once, where a table leaves the module, and the sweep of
``symfun`` reads it factored.  Every value is thus J's, and a
normalization has a pole exactly where its factor divides by a
vanishing hook product.

At an explicit numeric point and alpha > 0 no table is needed.
``point_values`` gives J_kappa(x) from the branching rule over horizontal
strips (Koev & Edelman, Math. Comp. 2006, 4-5): J_kappa in n variables is
a sum of J_mu in n - 1 variables times x_n^|kappa/mu| and a ratio of
hooks, so it takes one int per (kappa, n).  A negative alpha may zero a
hook there, so J's table is summed at the point instead.  J has no pole;
the series that read these values carry C's hooks in their one-box step.
"""

import math
from itertools import zip_longest

from . import binom, cache, operators, partitions
from .binom import _as_alpha
from .errors import DomainError
from .rational import (
    RationalFunction,
    _divide_key,
    as_exact,
    common_denominator,
    factored,
    homogeneous,
    linear_product,
    ratio,
)
from .symfun import GENERIC, SymExpr, _orbit_sum, as_nvars

NORMALIZATIONS = ("C", "J", "P")


def jack_monomial_coefficients(alpha, kappa):
    """Full table lambda -> c_{kappa,lambda} for C_kappa, all lengths kept."""
    alpha = _as_alpha(alpha)
    return _in_field(alpha, _c_table(alpha, GENERIC, partitions.as_partition(kappa)))


def _length(kappa, nvars):
    """The most parts a partition of |kappa| keeps in nvars variables."""
    k = partitions.weight(kappa)
    return k if as_nvars(nvars) is GENERIC else min(nvars, k)


def _c_table(alpha, nvars, kappa):
    """The C table of kappa over the partitions with at most nvars parts.

    At a symbolic alpha its values are ``rational.Factored``, for the sweep.
    """
    return _jack_monomial_coefficients(_as_alpha(alpha), kappa, _length(kappa, nvars), "C")


def _in_field(alpha, table):
    """The table's values in alpha's field: a Factored table converted once per call."""
    if isinstance(alpha, RationalFunction):
        return {lam: value.to_field() for lam, value in table.items()}
    return table


def _a_b(lam):
    """(A, B) = (sum lam_i (lam_i - 1), sum (i-1) lam_i)."""
    return sum(p * (p - 1) for p in lam), sum(i * p for i, p in enumerate(lam))


def _divide_linear(poly, p, q):
    """poly / (p alpha - q) in Z[alpha], by synthetic division from the top."""
    quotient = _divide_key(poly, -q, p)
    if quotient is None:
        raise ArithmeticError("Jack J coefficient is not divisible by %d*a - %d" % (p, q))
    return quotient


@cache.memo
def _jack_j_table(kappa, length):
    """lambda -> J_{kappa,lambda} as an int list in alpha (index = power), at most length parts."""
    # J_kappa's coefficient of m_kappa is c'_kappa, the product of the lower hooks u + alpha v
    seed = [1]
    for u, v in partitions._hook_pairs(kappa)[1]:
        seed = [u * c + v * b for c, b in zip(seed + [0], [0] + seed)]
        if not v:
            seed.pop()
    table = {kappa: seed}
    a_kappa, b_kappa = _a_b(kappa)
    for lam in partitions.partitions_of(partitions.weight(kappa), max(kappa, default=0), length):
        weights = {}
        # (part value, its first row, its multiplicity), values decreasing
        runs = []
        for row, part in enumerate(lam):
            if runs and runs[-1][0] == part:
                runs[-1][2] += 1
            else:
                runs.append([part, row, 1])
        for y, (b, start_b, m_b) in enumerate(runs):
            # from the last row holding b to the first holding a: every
            # pair of rows with those parts gives the same mu
            j = start_b + m_b - 1
            pairs = [(a, i, m_a * m_b) for a, i, m_a in runs[:y]]
            if m_b > 1:
                pairs.append((b, start_b, m_b * (m_b - 1) // 2))
            for a, i, count in pairs:
                # a part above kappa_1 leaves the dominance interval
                for t in range(1, min(b, kappa[0] - a) + 1):
                    moved = list(lam)
                    moved[i] += t
                    moved[j] -= t
                    mu = tuple(sorted(moved, reverse=True))
                    if not moved[j]:
                        mu = mu[:-1]
                    if mu in table:
                        weights[mu] = weights.get(mu, 0) + 2 * count * (a - b + 2 * t)
        if not weights:
            continue
        total = []
        for mu, weight in weights.items():
            total = [c + weight * d for c, d in zip_longest(total, table[mu], fillvalue=0)]
        a_lam, b_lam = _a_b(lam)
        table[lam] = _divide_linear(total, a_kappa - a_lam, 2 * (b_kappa - b_lam))
    return table


def _horner(coeffs, alpha):
    """sum_i coeffs[i] alpha^i by Horner's rule, homogeneous in alpha = P / Q.

    Returns the pair (sum_i c_i P^i Q^(d-i), Q^d), d = len(coeffs) - 1,
    whose ``ratio`` is the value.  For int coefficients and a Fraction or
    float alpha (a float is its exact dyadic ratio) both are ints, not
    reduced.  A symbolic alpha has Q = 1; the tables take it in
    ``rational.Factored`` form instead.
    """
    p, q = homogeneous(alpha)
    value = 0
    scale = 1
    for c in reversed(coeffs):
        value = value * p + c * scale
        scale *= q
    # the last step took scale to Q^(d+1)
    return value, scale // q


def _factor_pairs(kappa, norm):
    """(num_pairs, den_pairs, scale): ``_from_j``'s f as hooks u + alpha v.

    C's f = alpha^k k! / j_kappa and P's f = 1 / c'_kappa; J's f is 1.
    """
    if norm not in NORMALIZATIONS:
        raise DomainError("unknown normalization %r" % (norm,))
    if norm == "J":
        return (), (), 1
    upper, lower = partitions._hook_pairs(kappa)
    if norm == "P":
        return (), lower, 1
    k = partitions.weight(kappa)
    return ((0, 1),) * k, upper + lower, math.factorial(k)


@cache.memo
def _from_j(alpha, kappa, norm):
    """Scalar f with V_kappa = f * J_kappa for V in {C, J, P}.

    C's and P's f divide by hook products (``_factor_pairs``), taken by
    ``rational.linear_product``, so PoleError marks where that
    normalization is undefined.
    """
    if norm == "J":
        return 1
    num, den = linear_product(alpha, *_factor_pairs(kappa, norm))
    return ratio(num, partitions._hook_divisor(den, alpha, kappa))


@cache.memo
def _jack_monomial_coefficients(alpha, kappa, length, norm):
    """lam -> the coefficient of m_lam in V_kappa.

    At a symbolic alpha each value is a ``rational.Factored``: J's int list
    times f's hooks, with no field operation, the hooks that divide the
    list cancelled once here so that the sweep's sums carry fewer keys.
    J_kappa's own coefficient, c'_kappa, is its lower hooks, so that entry
    is all keys: C's is alpha^k k! / (upper hooks), which the sweep
    divides by.
    """
    table = _jack_j_table(kappa, length)
    if isinstance(alpha, RationalFunction):
        num_pairs, den_pairs, scale = _factor_pairs(kappa, norm)
        factor = factored(alpha, num_pairs, den_pairs, scale)
        out = {lam: (factor * factored(alpha, poly=coeffs)).lowest() for lam, coeffs in table.items()}
        out[kappa] = factored(alpha, num_pairs + partitions._hook_pairs(kappa)[1], den_pairs, scale)
        return out
    factor = _from_j(alpha, kappa, norm)
    return {lam: ratio(*_horner(coeffs, alpha)) * factor for lam, coeffs in table.items()}


class _Branching:
    """Q^|kappa| J_kappa(X_1..X_n) at an int point X for alpha = P / Q > 0.

    The branching rule (Koev & Edelman, Math. Comp. 2006, 4; Macdonald
    VI (7.13')) is

        J_kappa(x_1..x_n) = sum_mu J_mu(x_1..x_(n-1)) x_n^|kappa/mu| beta_kappa,mu

    over the horizontal strips kappa/mu: mu_i in [kappa_(i+1), kappa_i],
    mu_n = 0.  beta is the product over the boxes of kappa of B^kappa over
    the product over the boxes of mu of B^mu, where B^nu(i, j) is nu's lower
    hook l + 1 + alpha a when the strip meets column j, else its upper hook
    l + alpha (1 + a).  A box in a row and a column the strip misses has
    equal hooks in kappa and mu, so beta is a product over pairs of rows
    i <= r of ``_segment``s: row i's boxes in the columns whose lowest box
    is in row r.  Each hook u + alpha v is taken as Q u + P v, so beta's
    numerator has |kappa/mu| more factors than its denominator, and
    Q^|kappa| J_kappa(X) is an int: J_kappa's coefficients are int
    polynomials in alpha of degree at most |kappa|.

    ``value(kappa, n)`` sums over mu as one unreduced int pair and divides
    once; a remainder raises ArithmeticError.  Every value is kept, one per
    (kappa, n), for the larger partitions and counts that branch to it, and
    every segment for the strips that share it.  With alpha > 0 no hook
    vanishes, so no denominator is 0.
    """

    def __init__(self, alpha, xs):
        self.p, self.q = homogeneous(alpha)
        self.xs = xs
        self.values = [{(): 1}] + [{} for _ in xs]
        self.segments = {}

    def _segment(self, key):
        """(N, D): row i's factors in the columns (kappa_(r+1), kappa_r], r = i + gap.

        key = (gap, k_i, m_i, k_r, m_r, k_next) holds the parts of kappa and
        mu in rows i and r and k_next = kappa_(r+1).  A box there has leg gap
        in kappa, and in mu too unless the strip meets its column
        (mu_r < j), which takes the lowest box away.  The pair is kept for
        every strip that shares it.
        """
        gap, k_i, m_i, k_r, m_r, k_next = key
        p, q = self.p, self.q
        num = den = 1
        for j in range(m_r + 1, k_r + 1):
            # the strip meets the column: lower hooks, which mu has only above the strip
            num *= q * (gap + 1) + p * (k_i - j)
            if gap:
                den *= q * gap + p * (m_i - j)
        if m_i < k_i:
            # columns it misses: upper hooks, the arm longer in kappa
            for j in range(k_next + 1, m_r + 1):
                num *= q * gap + p * (1 + k_i - j)
                den *= q * gap + p * (1 + m_i - j)
        pair = self.segments[key] = (num, den)
        return pair

    def _strips(self, kp, n):
        """[(mu, N, D)] with N / D = Q^|kappa/mu| beta_kappa,mu, one per strip.

        kp is kappa padded with zeros to n + 1 parts.  The rows are chosen
        from the last up, so a row's factors with the rows below it are
        multiplied in once for all the strips that share those rows.
        mu_n = 0: the strip takes all of row n.
        """
        segments = self.segments
        key = (0, kp[n - 1], 0, kp[n - 1], 0, 0)
        strips = [((0,),) + (segments.get(key) or self._segment(key))]
        for i in range(n - 2, -1, -1):
            k_i = kp[i]
            grown = []
            for m_i in range(kp[i + 1], k_i + 1):
                for mu, num, den in strips:
                    below = (m_i,) + mu
                    for gap, m_r in enumerate(below):
                        key = (gap, k_i, m_i, kp[i + gap], m_r, kp[i + gap + 1])
                        pair = segments.get(key) or self._segment(key)
                        num *= pair[0]
                        den *= pair[1]
                    grown.append((below, num, den))
            strips = grown
        return strips

    def value(self, kappa, n):
        """Q^|kappa| J_kappa(X_1..X_n), 0 when kappa has more than n parts."""
        held = self.values[n]
        v = held.get(kappa)
        if v is not None:
            return v
        if len(kappa) > n:
            v = 0
        elif not self.xs[n - 1]:
            v = self.value(kappa, n - 1) if len(kappa) < n else 0
        else:
            x = self.xs[n - 1]
            k = partitions.weight(kappa)
            kp = kappa + (0,) * (n + 1 - len(kappa))
            below = self.values[n - 1]
            total, den = 0, 1
            for mu, a, b in self._strips(kp, n):
                mu = mu[: len(mu) - mu.count(0)]
                v_mu = below.get(mu)
                if v_mu is None:
                    v_mu = self.value(mu, n - 1)
                if v_mu:
                    total = total * b + den * v_mu * x ** (k - partitions.weight(mu)) * a
                    den *= b
            v, rem = divmod(total, den)
            if rem:
                raise ArithmeticError("branching sum of J_%r is not an integer" % (kappa,))
        held[kappa] = v
        return v


def _table_values(alpha, xs):
    """(kappa, n) -> Q^|kappa| J_kappa(X_1..X_n) at an int point X, from J's table.

    For alpha = P / Q < 0, where a branching coefficient's denominator may
    vanish although J_kappa(X) is finite.  J's coefficients are int
    polynomials in alpha of degree at most |kappa|, so each Q^|kappa|
    J_kappa,lambda(alpha) is an int from ``_horner``'s pair.  m_lambda(X)
    is kept per (lambda, n) for the partitions that share it.
    """
    q = homogeneous(alpha)[1]
    orbits = {}

    def value(kappa, n):
        k = partitions.weight(kappa)
        total = 0
        for lam, coeffs in _jack_j_table(kappa, min(n, k)).items():
            orbit = orbits.get((lam, n))
            if orbit is None:
                orbit = orbits[lam, n] = _orbit_sum(lam, xs[:n])
            if orbit:
                num, scale = _horner(coeffs, alpha)
                total += num * (q**k // scale) * orbit
        return total

    return value


def point_values(alpha, point):
    """kappa -> J_kappa(x) at the exact point x, as an unreduced int pair.

    The point is a list of ints and Fractions, taken as X / d over their
    least common denominator d.  With alpha = P / Q and k = |kappa|,
    J_kappa(x) = (Q^k J_kappa(X), (d Q)^k) for kappa with at most len(x)
    parts, Q^k J_kappa(X) from the branching rule over horizontal strips
    (``_Branching``) for alpha > 0, with no monomial table, and from J's
    table (``_table_values``) for alpha < 0.  J has no pole, so neither
    has this; the series' one-box step carries the hooks.
    """
    alpha = _as_alpha(alpha)
    xs, d = common_denominator(point)
    n = len(xs)
    j_at = _Branching(alpha, xs).value if alpha > 0 else _table_values(alpha, xs)
    dq = d * homogeneous(alpha)[1]
    return lambda kappa: (j_at(kappa, n), dq ** partitions.weight(kappa))


def normalization_factor(frm, to, alpha, kappa):
    """Factor f with V_kappa = f * W_kappa for normalizations V=frm, W=to.

    It is J's factor of V over J's factor of W, so it is defined exactly
    where both normalizations are; PoleError elsewhere.
    """
    alpha = _as_alpha(alpha)
    kappa = partitions.as_partition(kappa)
    if frm not in NORMALIZATIONS or to not in NORMALIZATIONS:
        raise DomainError("unknown normalization")
    # J's factor is the int 1; alpha**0 keeps the ratio in alpha's field
    return alpha**0 *_from_j(alpha, kappa, frm) / _from_j(alpha, kappa, to)


def jack_expand(alpha, kappa, norm="C", nvars=GENERIC):
    """Monomial expansion of the Jack polynomial in the given normalization."""
    alpha = _as_alpha(alpha)
    kappa = partitions.as_partition(kappa)
    if norm not in NORMALIZATIONS:
        raise DomainError("unknown normalization %r" % (norm,))
    length = _length(kappa, nvars)
    table = _in_field(alpha, _jack_monomial_coefficients(alpha, kappa, length, norm))
    if len(kappa) > length:
        # no term in fewer variables than kappa has parts, but the same pole
        table = {}
    return SymExpr._of_canonical("m", table, nvars)


def jack_identity_value(alpha, kappa, norm, m):
    """Value at x_1 = ... = x_m = 1; m may be numeric or a symbolic scalar.

    J_kappa(I_m) = alpha^k (m/alpha)_kappa is ``binom._box_product``, times
    the normalization's factor.  At a symbolic alpha and a numeric m both
    are products of factors linear in alpha, so they are one
    ``rational.linear_product``.
    """
    alpha = _as_alpha(alpha)
    kappa = partitions.as_partition(kappa)
    m = as_exact(m, "m")
    if isinstance(alpha, RationalFunction) and not isinstance(m, RationalFunction):
        boxes, _, box_scale = binom._box_pairs(m, kappa, ())
        num_pairs, den_pairs, scale = _factor_pairs(kappa, norm)
        return linear_product(alpha, tuple(boxes) + num_pairs, den_pairs, box_scale * scale)[0]
    return binom._box_product(alpha, m, kappa, ()) * _from_j(alpha, kappa, norm)


def apply_dstar(expr, alpha, nvars):
    """Apply the Jack Laplace-Beltrami operator to a monomial expansion.

    The operator is sum x_i^2 d^2/dx_i^2 + (2/alpha) sum_{i != j}
    x_i^2/(x_i - x_j) d/dx_i; C_kappa in n variables is an eigenfunction
    with eigenvalue rho(alpha, kappa) + (2/alpha) k (n-1).
    """
    alpha = _as_alpha(alpha)
    if as_nvars(nvars, 1) is GENERIC:
        raise DomainError("apply_dstar needs a numeric variable count")
    if nvars > 6:
        raise DomainError("apply_dstar is capped at 6 variables")
    return operators.apply_to_symexpr(expr, [(1, "dstar")], alpha, nvars)


def dstar_eigenvalue(alpha, kappa, nvars):
    alpha = _as_alpha(alpha)
    k = partitions.weight(partitions.as_partition(kappa))
    return partitions.rho(alpha, kappa) + (2 / alpha) * k * (as_exact(nvars, "nvars") - 1)
