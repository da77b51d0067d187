"""Multivariate Hermite, Laguerre and Jacobi polynomials.

Each polynomial is an OrthoExpansion, a SymExpr in the Jack C basis whose
terms map the subpartitions sigma of kappa to the exact coefficient of the
plain Jack polynomial C_sigma.  Two independent Hermite constructions are
provided; they must agree exactly, which is enforced by the test suite.
``hermite`` walks the two-box paths sigma -> sigma^(i) -> sigma^(i)(j)
inside kappa, each weighted by the content of its first box less the
content of its second, the content of box (row, col) being
col - 1 - (row - 1)/alpha.  Its values ``_hermite_values`` do not depend
on the variable count, and they also serve the level density and the
Hermite expectations, whose constant term is v_() C_kappa(I_m).
``hermite2`` takes the Laguerre limit: a sum over the pairs
sigma <= mu <= kappa of (kappa choose mu)(mu choose sigma) times one
coefficient of a Pochhammer ratio, read from one walk over mu,
``_hermite_mu_walk``.

Every coefficient carries C_kappa(I_n)/C_sigma(I_n), ``_identity_ratio``:
the product over the boxes of kappa/sigma of ``binom._box_product`` times
the C normalization's factors of kappa and sigma, one formula at every
sigma, also where C_sigma(I_n) is 0.  Only the sigma an expansion holds
are visited, so a pole of another subpartition's hooks raises nothing.

Sign conventions follow the explicit expansion formulas and the
eigenfunction equations, cross-checked against the univariate classical
polynomials at n = 1.
"""

import math
from fractions import Fraction

from . import binom, jack, operators, partitions
from .errors import DomainError, PoleError
from .rational import N as N_PARAM
from .rational import (
    RationalFunction,
    as_exact,
    as_finite,
    common_denominator,
    factored,
    field_value,
    homogeneous,
    linear_product,
    ratio,
    rf,
    settled,
)
from .symfun import GENERIC, SymExpr, as_nvars, eval_numeric, expand_to_monomials

class OrthoExpansion(SymExpr):
    """sum_sigma c_sigma C_sigma: a C-basis SymExpr that names its polynomial.

    family, kappa and params (alpha and the weight exponents) say which
    polynomial the terms expand.
    """

    __slots__ = ("family", "kappa", "params")

    def __init__(self, family, kappa, params, nvars, terms):
        SymExpr.__init__(self, "C", terms, nvars)
        self.family = family
        self.kappa = kappa
        self.params = dict(params)

    def as_symexpr(self):
        return SymExpr._of_canonical("C", self.terms, self.nvars)

    def to_monomials(self, alpha):
        if self.nvars is GENERIC:
            raise DomainError("monomial expansion needs a numeric variable count")
        return expand_to_monomials(alpha, self, self.nvars)

    def to_json(self):
        out = SymExpr.to_json(self)
        del out["basis"]
        out["family"] = self.family
        out["kappa"] = list(self.kappa)
        out["params"] = {name: rf(value).to_json() for name, value in sorted(self.params.items())}
        return out


def _check_nvars(kappa, nvars):
    """N or Fraction(nvars): the scalar m of a count of at least max(1, len(kappa)) variables."""
    if as_nvars(nvars, 1) is GENERIC:
        return N_PARAM
    if len(kappa) > nvars:
        raise DomainError("partition %r needs at least %d variables" % (list(kappa), len(kappa)))
    return Fraction(nvars)


def _jacobi_g(alpha, g1, g2, m):
    """G = g1 + g2 + 2(m-1)/alpha + 2: the Jacobi eigenvalue is rho_kappa + |kappa| G."""
    return g1 + g2 + (2 / alpha) * (m - 1) + 2


def _check_weight_param(value, name):
    """Numeric Laguerre/Jacobi exponents must exceed -1."""
    value = as_exact(value, name)
    if isinstance(value, Fraction) and value <= -1:
        raise DomainError("%s must be > -1, got %s" % (name, value))
    return value


def _identity_ratio(alpha, kappa, sigma, m):
    """C_kappa(I_m) / C_sigma(I_m) as the generic expansion holds it, at m.

    C_kappa(I_m) is alpha^k k! / j_kappa times ``binom._box_product(alpha,
    m, kappa, ())``, and sigma's product divides kappa's, so the ratio is
    alpha^(k-s) (k!/s!) j_sigma / j_kappa times the product over the boxes
    of kappa/sigma.  The first factor is one ``rational.linear_product``,
    in which sigma's hooks cancel against kappa's; a vanishing hook product
    of kappa, then of sigma, raises PoleError.  At a symbolic alpha no hook
    vanishes, and for a numeric m the box factors m + alpha (c-1) - (l-1)
    depend on alpha alone, so they join the same product.  It is the
    generic polynomial's value at m also where C_sigma(I_m) is 0, which a
    negative alpha and a numeric m can make.
    """
    k, s = partitions.weight(kappa), partitions.weight(sigma)
    upper, lower = partitions._hook_pairs(kappa)
    upper_s, lower_s = partitions._hook_pairs(sigma)
    above = ((0, 1),) * (k - s) + upper_s + lower_s
    if isinstance(alpha, RationalFunction) and not isinstance(m, RationalFunction):
        boxes, _, scale = binom._box_pairs(m, kappa, sigma)
        return linear_product(alpha, above + tuple(boxes), upper + lower, math.perm(k, k - s) * scale)[0]
    num, den = linear_product(alpha, above, upper + lower, math.perm(k, k - s))
    partitions._hook_divisor(den, alpha, kappa)
    partitions._hook_divisor(num, alpha, sigma)
    return ratio(num, den) * binom._box_product(alpha, m, kappa, sigma)


def _binomial_expansion(alpha, kappa, c1, m, values):
    """Coefficients (-1)^|sigma| v_sigma (c1)_kappa/(c1)_sigma C_kappa(I)/C_sigma(I)."""
    coeffs = {}
    for sigma, val in values.items():
        sign = -1 if partitions.weight(sigma) % 2 else 1
        coeffs[sigma] = (
            sign * val * binom.gsfact_skew(alpha, c1, kappa, sigma) * _identity_ratio(alpha, kappa, sigma, m)
        )
    return coeffs


# ---------------------------------------------------------------------------
# Laguerre


def laguerre(alpha, kappa, gamma, nvars=GENERIC):
    """Laguerre polynomial, explicit binomial expansion in the C basis."""
    alpha = jack._as_alpha(alpha)
    kappa = partitions.as_partition(kappa)
    gamma = _check_weight_param(gamma, "gamma")
    m = _check_nvars(kappa, nvars)
    c1 = gamma + (m - 1) / alpha + 1
    coeffs = _binomial_expansion(alpha, kappa, c1, m, binom.gbinomial_table(alpha, kappa))
    return OrthoExpansion("laguerre", kappa, {"alpha": alpha, "g": gamma}, nvars, coeffs)


# ---------------------------------------------------------------------------
# Jacobi


def jacobi(alpha, kappa, g1, g2, nvars=GENERIC):
    """Jacobi polynomial via the binomial-coefficient recurrence.

    The one-box transition weight is the contiguous coefficient
    (sigma^(i) choose sigma) alone; this is what the eigenfunction
    equation yields, and the operator eigenchecks and the n = 1
    Gram-Schmidt reduction confirm it.
    """
    alpha = jack._as_alpha(alpha)
    kappa = partitions.as_partition(kappa)
    g1 = _check_weight_param(g1, "g1")
    g2 = _check_weight_param(g2, "g2")
    m = _check_nvars(kappa, nvars)
    k = partitions.weight(kappa)
    big_g = _jacobi_g(alpha, g1, g2, m)
    rho_kappa = partitions.rho(alpha, kappa)
    a_kappa, b_kappa = jack._a_b(kappa)
    alpha_only = isinstance(alpha, RationalFunction) and all(isinstance(x, Fraction) for x in (g1, g2, m))

    def divisor(sigma):
        s = partitions.weight(sigma)
        if alpha_only:
            # rho = A - (2/alpha) B, so the divisor is (U + alpha V) / alpha: one key over alpha
            a_sigma, b_sigma = jack._a_b(sigma)
            (u, v), d = common_denominator(
                [2 * ((m - 1) * (k - s) - b_kappa + b_sigma), (g1 + g2 + 2) * (k - s) + a_kappa - a_sigma]
            )
            return factored(alpha, ((u, v),), ((0, 1),), Fraction(1, d))
        denom = big_g * (k - s) + rho_kappa - partitions.rho(alpha, sigma)
        if isinstance(denom, Fraction) and denom == 0:
            raise PoleError("Jacobi recurrence denominator vanished at sigma=%r" % (sigma,))
        return denom

    inner = binom.one_box_recurrence(alpha, kappa, divisor)
    c1 = g1 + (m - 1) / alpha + 1
    coeffs = _binomial_expansion(alpha, kappa, c1, m, inner)
    return OrthoExpansion("jacobi", kappa, {"alpha": alpha, "g1": g1, "g2": g2}, nvars, coeffs)


# ---------------------------------------------------------------------------
# Hermite, limiting-process construction


def hermite2(alpha, kappa, nvars=GENERIC):
    """Hermite polynomial from the Laguerre limit formula.

    With k = |kappa|, s = |sigma| and d = (k-s)/2, the coefficient of
    C_sigma is C_kappa(I)/(C_sigma(I) alpha^d) times the sum over the pairs
    (mu, sigma) with sigma <= mu <= kappa and 2|mu| <= k + s of
    (-1)^(k-|mu|) (kappa choose mu)(mu choose sigma) e_d(kappa/mu), zero
    when k - s is odd.  e_d(kappa/mu)/alpha^d is the coefficient of
    r^((k+s)/2 - |mu|) in (r + c0)_kappa / (r + c0)_mu, c0 = 1 + (m-1)/alpha
    (see ``_hermite_mu_walk``).  The walk takes mu from the table of kappa
    and sigma from the table of mu.
    """
    alpha = jack._as_alpha(alpha)
    kappa = partitions.as_partition(kappa)
    m = _check_nvars(kappa, nvars)
    k = partitions.weight(kappa)
    totals = {}
    for mu, kappa_mu, e in _hermite_mu_walk(alpha, kappa, m):
        j = partitions.weight(mu)
        for sigma, mu_sigma in binom.gbinomial_table(alpha, mu).items():
            s = partitions.weight(sigma)
            if (k - s) % 2 or 2 * j > k + s:
                continue
            term = kappa_mu * mu_sigma * e[(k - s) // 2]
            total = totals.get(sigma)
            totals[sigma] = term if total is None else total + term
    coeffs = {
        sigma: total / alpha ** ((k - partitions.weight(sigma)) // 2) * _identity_ratio(alpha, kappa, sigma, m)
        for sigma, total in totals.items()
    }
    return OrthoExpansion("hermite", kappa, {"alpha": alpha}, nvars, coeffs)


def _hermite_mu_walk(alpha, kappa, m):
    """(mu, (-1)^(k-|mu|) (kappa choose mu), e) for each mu <= kappa.

    alpha and kappa must be canonical and m the scalar of ``_check_nvars``.
    e[t], t <= h = k/2 rounded down, is the elementary symmetric polynomial
    e_t(kappa/mu) of the numerators alpha j + m - 1 - (i-1) over the boxes
    (i, j) of kappa/mu.  (r + c0)_kappa/(r + c0)_mu is the product of the
    k - |mu| factors r + numerator/alpha, so its coefficient of
    r^(k-|mu|-t) is e_t(kappa/mu)/alpha^t.
    """
    k = partitions.weight(kappa)
    h = k // 2
    for mu, kappa_mu in binom.gbinomial_table(alpha, kappa).items():
        j = partitions.weight(mu)
        e = [1] + [0] * h
        seen = 0
        for i0, part in enumerate(kappa):
            low = mu[i0] if i0 < len(mu) else 0
            for col in range(low + 1, part + 1):
                x = alpha * col + m - 1 - i0
                seen += 1
                for t in range(min(seen, h), 0, -1):
                    e[t] = e[t] + e[t - 1] * x
        yield mu, -kappa_mu if (k - j) % 2 else kappa_mu, e


# ---------------------------------------------------------------------------
# Hermite, coefficient recurrence


def hermite(alpha, kappa, nvars=GENERIC):
    """Hermite polynomial via the two-box coefficient recurrence.

    Walking the eigenfunction equation down two units of weight at a time,

        v_sigma = sum (c_1 - c_2) (sigma^(i) choose sigma)
                  (sigma^(i)(j) choose sigma^(i)) v_{sigma^(i)(j)} / (k - s),

    the sum running over the two-box paths sigma -> sigma^(i) ->
    sigma^(i)(j) inside kappa, c_1 and c_2 the contents of the first and
    second boxes, from v_kappa = 1 (``_hermite_values``).
    The recurrence is linear and free of the variable count, so the
    coefficient of C_sigma is v_sigma C_kappa(I)/C_sigma(I).
    """
    alpha = jack._as_alpha(alpha)
    kappa = partitions.as_partition(kappa)
    m = _check_nvars(kappa, nvars)
    values = _hermite_values(alpha, kappa)
    coeffs = {sigma: val * _identity_ratio(alpha, kappa, sigma, m) for sigma, val in values.items()}
    return OrthoExpansion("hermite", kappa, {"alpha": alpha}, nvars, coeffs)


def _hermite_values(alpha, kappa):
    """sigma -> v_sigma of ``hermite``'s two-box recurrence, from v_kappa = 1.

    alpha and kappa must be canonical.  Row j adds to tau the box of
    content c_j(tau) = tau_j - (j-1)/alpha, and a path sigma -> tau ->
    tau^(j), tau = sigma^(i), weighs c_i(sigma) - c_j(tau).  The paths
    through one tau share its two one-box sums over the steps inside kappa,

        S_tau = sum_j (tau^(j) choose tau) v_{tau^(j)},
        T_tau = sum_j c_j(tau) (tau^(j) choose tau) v_{tau^(j)},

    so v_sigma = sum_i (sigma^(i) choose sigma) (c_i(sigma) S_tau - T_tau)
    / (k - s), tau running over the steps sigma^(i) inside kappa.  In
    reversed lexicographic order every tau^(j) comes before tau and every
    tau before sigma: one pass forms S and T where k - |tau| is odd and v
    where k - |sigma| is even.

    With alpha = P / Q a content is (P tau_j - Q (j-1)) / P, and the
    coefficients are the undivided pairs of ``binom._contiguous`` that
    ``binom.one_box_recurrence`` sums too: for a Fraction alpha, S and T
    are held as ints (S_num, T_num, den) over one unreduced denominator,
    den for S and den P for T, and v_sigma is one Fraction.  At a symbolic
    alpha they are ``rational.Factored`` over the int 1, with P the key
    X = alpha and Q = 1: each sum is held as its terms and added up once,
    when S and T are stored and when v_sigma is divided, and each v_sigma
    is converted to the field once, at the end.
    """
    k = partitions.weight(kappa)
    p, q = homogeneous(alpha)
    # P in the contents and the last division
    big_p = p if p.__class__ is int else factored(alpha, ((0, 1),))
    values, sums = {kappa: 1}, {}
    # reversed lexicographic order puts every sigma^(i) before sigma;
    # kappa, the last subpartition, keeps its seed
    for sigma in partitions.subpartitions_of(kappa)[-2::-1]:
        s = partitions.weight(sigma)
        odd = (k - s) % 2
        num, t_num, den = 0, 0, 1
        for i in range(1, len(sigma) + 2):
            up = (values if odd else sums).get(binom._row_increment(sigma, i))
            if up is None:
                continue
            coeff_num, coeff_den = binom._contiguous(p, q, sigma, i)
            # P c_i(sigma)
            content = (sigma[i - 1] if i <= len(sigma) else 0) * big_p - (i - 1) * q
            if odd:
                value_num, value_den = homogeneous(up)
                term_num, term_den = coeff_num * value_num, coeff_den * value_den
                t_num = t_num * term_den + content * term_num * den
            else:
                up_s, up_t, up_den = up
                term_num, term_den = coeff_num * (content * up_s - up_t), coeff_den * up_den
            num, den = num * term_den + term_num * den, den * term_den
        if odd:
            sums[sigma] = settled(num), settled(t_num), den
        else:
            values[sigma] = ratio(num, big_p * (den * (k - s)))
    if p.__class__ is not int:
        values = {sigma: field_value(value) for sigma, value in values.items()}
    return values


# ---------------------------------------------------------------------------
# evaluation helpers


def family_operator(expansion):
    """Apply the family's defining differential operator.

    hermite:  (sum d_i^2 + (2/a) sum 1/(x_i-x_j) d_i) - sum x_i d_i
    laguerre: (sum x_i d_i^2 + (2/a) sum x_i/(x_i-x_j) d_i) - E + (g+1) eps
    jacobi:   D* + (g1+g2+2) E - delta* - (g1+1) eps
    Returns a monomial SymExpr; compare with family_eigenvalue(expansion)
    times the polynomial.
    """
    alpha = expansion.params["alpha"]
    if expansion.family == "hermite":
        terms = [(1, "deltastarstar"), (-1, "E")]
    elif expansion.family == "laguerre":
        terms = [(1, "deltastar"), (-1, "E"), (expansion.params["g"] + 1, "eps")]
    elif expansion.family == "jacobi":
        g1 = expansion.params["g1"]
        g2 = expansion.params["g2"]
        terms = [(1, "dstar"), (g1 + g2 + 2, "E"), (-1, "deltastar"), (-(g1 + 1), "eps")]
    else:
        raise DomainError("unknown family %r" % expansion.family)
    return operators.apply_to_symexpr(
        expansion.to_monomials(alpha), terms, alpha, expansion.nvars
    )


def family_eigenvalue(expansion):
    """Eigenvalue of family_operator on the expansion.

    Hermite and Laguerre polynomials satisfy op(P) = -|kappa| P with the
    operators as written above; Jacobi polynomials satisfy op(P) =
    (rho_kappa + |kappa| (g1+g2+2+(2/alpha)(n-1))) P, a polynomial in n
    for a generic variable count.
    """
    k = partitions.weight(expansion.kappa)
    if expansion.family in ("hermite", "laguerre"):
        return -k
    params = expansion.params
    big_g = _jacobi_g(params["alpha"], params["g1"], params["g2"], _check_nvars(expansion.kappa, expansion.nvars))
    return partitions.rho(params["alpha"], expansion.kappa) + k * big_g


def eval_at_zero(expansion):
    """Constant term (the coefficient of C of the empty partition)."""
    return expansion.terms.get((), 0)


def eval_at_scalar_identity(expansion, x, m):
    """Value at (x, x, ..., x) with m entries, by homogeneity of C_sigma."""
    if expansion.nvars is GENERIC or expansion.nvars != as_nvars(m, 1):
        raise DomainError("expansion was built for %r variables, not %r" % (expansion.nvars, m))
    x = as_exact(x, "x")
    return sum(layer * x**s for s, layer in enumerate(_scalar_identity_sums(expansion)))


def _scalar_identity_sums(expansion):
    """[S_0..S_|kappa|], S_s = sum over |sigma| = s of c_sigma C_sigma(I_m), m = nvars."""
    alpha, m = expansion.params["alpha"], expansion.nvars
    sums = [0] * (partitions.weight(expansion.kappa) + 1)
    for sigma, c in expansion.terms.items():
        sums[partitions.weight(sigma)] += c * jack.jack_identity_value(alpha, sigma, "C", m)
    return sums


def laguerre_hermite_limit_check(alpha, kappa, n, gamma_grid, xs):
    """Deviation of the scaled Laguerre polynomials from the Hermite limit.

    Evaluates gamma^(-k/2) L(gamma + sqrt(gamma) x) against (-1)^k H(x) at
    the point xs for each gamma on an increasing grid; returns the list of
    absolute deviations, which should decrease along the grid.  Every gamma
    must be a number > 0.
    """
    alpha = jack._as_alpha(alpha)
    kappa = partitions.as_partition(kappa)
    k = partitions.weight(kappa)
    gamma_grid = [as_exact(gamma, "gamma") for gamma in gamma_grid]
    for gamma in gamma_grid:
        if not isinstance(gamma, Fraction) or gamma <= 0:
            raise DomainError("gamma must be a number > 0, got %s" % gamma)
    xs = [float(as_finite(x, "a coordinate")) for x in xs]
    if len(xs) != n:
        raise DomainError("point has %d coordinates, expected %d" % (len(xs), n))
    target = (-1) ** k * eval_numeric(hermite(alpha, kappa, n), xs, alpha)
    deviations = []
    for gamma in gamma_grid:
        root = float(gamma) ** 0.5
        point = [float(gamma) + root * x for x in xs]
        lag = eval_numeric(laguerre(alpha, kappa, gamma, n), point, alpha)
        scaled = lag / float(gamma) ** (k / 2.0)
        deviations.append(abs(scaled - target))
    return deviations
