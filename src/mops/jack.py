"""Jack polynomials via the Laplace-Beltrami recurrence.

Everything is computed in the C normalization (the one whose partitions of
k sum to (x_1 + ... + x_n)^k); J and P are scalar multiples.  The monomial
coefficients c_{kappa,lambda} do not depend on the number of variables, so
one memo table per (alpha, kappa) serves every variable count; a numeric
count only drops partitions longer than n.

The recurrence walks partitions of |kappa| downward in lexicographic
order.  For each lambda it enumerates the moves (i < j, 1 <= t <=
lambda_j) sending lambda to mu = sort(lambda + t e_i - t e_j); every move
whose mu is dominated by kappa contributes (lambda_i - lambda_j + 2t) *
c_{kappa,mu}, and distinct moves contribute separately even when they
produce the same mu.
"""

import math
from fractions import Fraction

from . import binom, cache, operators, partitions
from .errors import DomainError, PoleError
from .rational import as_exact
from .symfun import GENERIC, SymExpr

NORMALIZATIONS = ("C", "J", "P")


def _as_alpha(alpha):
    alpha = as_exact(alpha, "alpha")
    if not alpha:
        raise DomainError("alpha = 0 is outside the Jack parameter domain")
    return alpha


def jack_monomial_coefficients(alpha, kappa):
    """Full table lambda -> c_{kappa,lambda} for C_kappa, all lengths kept."""
    return _jack_monomial_coefficients(_as_alpha(alpha), partitions.as_partition(kappa))


@cache.memo
def _jack_monomial_coefficients(alpha, kappa):
    k = partitions.weight(kappa)
    c_upper = partitions.hook_products(alpha, kappa)[0]
    seed = alpha**k * math.factorial(k) / partitions._hook_divisor(c_upper, alpha, kappa)
    table = {kappa: seed}
    rho_kappa = partitions.rho(alpha, kappa)
    two_over_alpha = 2 / alpha
    for lam in partitions.partitions_of(k):
        if lam == kappa or lam > kappa:
            continue
        if partitions.compare(lam, kappa, "dominance") != partitions.LESS:
            continue
        total = None
        llen = len(lam)
        for j in range(1, llen):
            for i in range(j):
                diff = lam[i] - lam[j]
                for t in range(1, lam[j] + 1):
                    moved = list(lam)
                    moved[i] += t
                    moved[j] -= t
                    mu = tuple(sorted((p for p in moved if p), reverse=True))
                    c_mu = table.get(mu)
                    if c_mu is None:
                        continue
                    term = (diff + 2 * t) * c_mu
                    total = term if total is None else total + term
        if total is None:
            continue
        denom = rho_kappa - partitions.rho(alpha, lam)
        if isinstance(denom, Fraction) and denom == 0:
            raise PoleError(
                "alpha = %s is a pole of the Jack coefficient recurrence" % (alpha,)
            )
        table[lam] = two_over_alpha * total / denom
    return table


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
    if nvars is not GENERIC and len(kappa) > nvars:
        return SymExpr("m", {}, nvars)
    table = jack_monomial_coefficients(alpha, kappa)
    factor = _c_to_norm_factor(alpha, kappa, norm)
    terms = {}
    for lam, coeff in table.items():
        if nvars is not GENERIC and len(lam) > nvars:
            continue
        terms[lam] = coeff * factor if factor != 1 else coeff
    return SymExpr._of_canonical("m", terms, nvars)


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
    if nvars is GENERIC:
        raise DomainError("apply_dstar needs a numeric variable count")
    if nvars > 6:
        raise DomainError("apply_dstar is capped at 6 variables")
    return operators.apply_to_symexpr(expr, [(1, "dstar")], alpha, nvars)


def dstar_eigenvalue(alpha, kappa, nvars):
    alpha = _as_alpha(alpha)
    k = partitions.weight(partitions.as_partition(kappa))
    return partitions.rho(alpha, kappa) + (2 / alpha) * k * (nvars - 1)
