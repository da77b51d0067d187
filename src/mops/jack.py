"""Jack polynomials via the Laplace-Beltrami recurrence, over Z[alpha].

C is the working normalization (the one whose partitions of k sum to
(x_1 + ... + x_n)^k); J and P are scalar multiples.  The monomial
coefficients c_{kappa,lambda} do not depend on the number of variables, so
for a numeric count n the table is built over at most n parts, and every
n >= |kappa| shares the generic table.

The recurrence runs in the J normalization, whose monomial coefficients
are polynomials in alpha with non-negative integer coefficients (Knop &
Sahi, "A recursion and a combinatorial formula for Jack polynomials",
Invent. Math. 128, 1997).  It walks the partitions of |kappa| with parts
at most kappa_1 and at most ``length`` parts downward in lexicographic
order.  Each lambda has the moves (i < j, 1 <= t <= lambda_j) to mu =
sort(lambda + t e_i - t e_j); a move adds no part and raises lambda in
dominance order, so only lambda below kappa reach the table.  Every move
whose mu is in the table adds (lambda_i - lambda_j + 2t) to the weight
of J_mu, distinct moves separately even when their mu agree.  The
weighted sum times 2/alpha is divided by rho_kappa - rho_lambda; times
alpha that divisor is the integer linear polynomial p alpha - q with
p = A_kappa - A_lambda > 0 and q = 2 (B_kappa - B_lambda), where
A = sum kappa_i (kappa_i - 1) and B = sum (i-1) kappa_i.  So every step
is an exact synthetic division of an int list by a linear factor; no gcd.

The integer table is free of alpha and memoized per (kappa, length).  The
C table at a given alpha evaluates each entry once by Horner's rule, in
ints over one power of the denominator when alpha is a Fraction, and
multiplies it by alpha^k k! / j_kappa(alpha); alpha is a pole exactly
when the hook product j_kappa vanishes there.  The J expansion is the
Horner values themselves, with no pole, and P is J divided by its leading
coefficient J_{kappa,kappa}, the product of lower hooks.
"""

import math
from itertools import zip_longest

from . import binom, cache, operators, partitions
from .errors import DomainError
from .rational import as_exact, homogeneous, ratio
from .symfun import GENERIC, SymExpr, as_nvars

NORMALIZATIONS = ("C", "J", "P")


def _as_alpha(alpha):
    alpha = as_exact(alpha, "alpha")
    if not alpha:
        raise DomainError("alpha = 0 is outside the Jack parameter domain")
    return alpha


def jack_monomial_coefficients(alpha, kappa):
    """Full table lambda -> c_{kappa,lambda} for C_kappa, all lengths kept."""
    return _c_table(alpha, GENERIC, partitions.as_partition(kappa))


def _length(kappa, nvars):
    """The most parts a partition of |kappa| keeps in nvars variables."""
    k = partitions.weight(kappa)
    return k if as_nvars(nvars) is GENERIC else min(nvars, k)


def _c_table(alpha, nvars, kappa):
    """The C table of kappa over the partitions with at most nvars parts."""
    return _jack_monomial_coefficients(_as_alpha(alpha), kappa, _length(kappa, nvars))


def _a_b(lam):
    """(A, B) = (sum lam_i (lam_i - 1), sum (i-1) lam_i)."""
    return sum(p * (p - 1) for p in lam), sum(i * p for i, p in enumerate(lam))


def _divide_linear(poly, p, q):
    """poly / (p alpha - q) in Z[alpha], by synthetic division from the top."""
    quotient = [0] * (len(poly) - 1)
    carry = rem = 0
    for i in range(len(poly) - 1, 0, -1):
        carry, rem = divmod(poly[i] + q * carry, p)
        if rem:
            break
        quotient[i - 1] = carry
    if rem or poly[0] + q * carry:
        raise ArithmeticError("Jack J coefficient is not divisible by %d*a - %d" % (p, q))
    return quotient


@cache.memo
def _jack_j_table(kappa, length):
    """lambda -> J_{kappa,lambda} as an int list in alpha (index = power), at most length parts."""
    conj = partitions.conjugate(kappa)
    seed = [1]
    for i0, part in enumerate(kappa):
        for j0 in range(part):
            # times alpha * arm + leg + 1
            arm, leg1 = part - j0 - 1, conj[j0] - i0
            seed = [leg1 * c + arm * b for c, b in zip(seed + [0], [0] + seed)]
            if not arm:
                seed.pop()
    table = {kappa: seed}
    a_kappa, b_kappa = _a_b(kappa)
    for lam in partitions.partitions_of(partitions.weight(kappa), max(kappa, default=0), length):
        weights = {}
        for j in range(1, len(lam)):
            for i in range(j):
                diff = lam[i] - lam[j]
                # a part above kappa_1 leaves the dominance interval
                for t in range(1, min(lam[j], kappa[0] - lam[i]) + 1):
                    moved = list(lam)
                    moved[i] += t
                    moved[j] -= t
                    mu = tuple(sorted(moved, reverse=True))
                    if not moved[j]:
                        mu = mu[:-1]
                    if mu in table:
                        weights[mu] = weights.get(mu, 0) + 2 * (diff + 2 * t)
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
    reduced; a symbolic alpha has Q = 1.
    """
    p, q = homogeneous(alpha)
    value = 0
    scale = 1
    for c in reversed(coeffs):
        value = value * p + c * scale
        scale *= q
    # the last step took scale to Q^(d+1)
    return value, scale // q


@cache.memo
def _jack_monomial_coefficients(alpha, kappa, length):
    k = partitions.weight(kappa)
    j_full = partitions.hook_products(alpha, kappa)[2]
    factor = alpha**k * math.factorial(k) / partitions._hook_divisor(j_full, alpha, kappa)
    return {lam: ratio(*_horner(coeffs, alpha)) * factor for lam, coeffs in _jack_j_table(kappa, length).items()}


def _c_to_norm_factor(alpha, kappa, norm):
    """Scalar f with V = f * C for V in {C, J, P}."""
    if norm == "C":
        return 1
    k = partitions.weight(kappa)
    c_upper, _, j_full = partitions.hook_products(alpha, kappa)
    denom = alpha**k * math.factorial(k)
    if norm == "J":
        return j_full / denom
    if norm == "P":
        return c_upper / denom
    raise DomainError("unknown normalization %r" % (norm,))


def normalization_factor(frm, to, alpha, kappa):
    """Factor f with V_kappa = f * W_kappa for normalizations V=frm, W=to."""
    alpha = _as_alpha(alpha)
    if frm not in NORMALIZATIONS or to not in NORMALIZATIONS:
        raise DomainError("unknown normalization")
    if frm == to:
        return alpha**0
    f_from = _c_to_norm_factor(alpha, kappa, frm)
    f_to = _c_to_norm_factor(alpha, kappa, to)
    return f_from / partitions._hook_divisor(f_to, alpha, kappa)


def jack_expand(alpha, kappa, norm="C", nvars=GENERIC):
    """Monomial expansion of the Jack polynomial in the given normalization."""
    alpha = _as_alpha(alpha)
    kappa = partitions.as_partition(kappa)
    if norm not in NORMALIZATIONS:
        raise DomainError("unknown normalization %r" % (norm,))
    length = _length(kappa, nvars)
    if nvars is not GENERIC and len(kappa) > nvars:
        return SymExpr("m", {}, nvars)
    if norm == "C":
        table = _jack_monomial_coefficients(alpha, kappa, length)
    else:
        # J is the Horner value itself; P = J / J_{kappa,kappa}, the lower hooks
        table = {lam: ratio(*_horner(coeffs, alpha)) for lam, coeffs in _jack_j_table(kappa, length).items()}
        if norm == "P":
            lower = partitions._hook_divisor(partitions.hook_products(alpha, kappa)[1], alpha, kappa)
            inverse = 1 / lower
            table = {lam: coeff * inverse for lam, coeff in table.items()}
    return SymExpr._of_canonical("m", table, nvars)


def jack_identity_value(alpha, kappa, norm, m):
    """Value at x_1 = ... = x_m = 1; m may be numeric or a symbolic scalar."""
    alpha = _as_alpha(alpha)
    kappa = partitions.as_partition(kappa)
    k = partitions.weight(kappa)
    poch = binom.gsfact(alpha, as_exact(m, "m") / alpha, kappa)
    j_full = partitions._hook_divisor(partitions.hook_products(alpha, kappa)[2], alpha, kappa)
    value = alpha ** (2 * k) * math.factorial(k) * poch / j_full
    return value * _c_to_norm_factor(alpha, kappa, norm)


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
