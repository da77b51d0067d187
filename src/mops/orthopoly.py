"""Multivariate Hermite, Laguerre and Jacobi polynomials.

Each polynomial is an OrthoExpansion, a SymExpr in the Jack C basis whose
terms map the subpartitions sigma of kappa to the exact coefficient of the
plain Jack polynomial C_sigma.  Two independent Hermite constructions are
provided; they must agree exactly, which is enforced by the test suite.
``hermite`` walks the two-box paths sigma -> sigma^(i) -> sigma^(i)(j)
inside kappa, each weighted by the content of its first box less the
content of its second, the content of box (row, col) being
col - 1 - (row - 1)/alpha.  ``hermite2`` takes the Laguerre limit: a sum
over the pairs sigma <= mu <= kappa of (kappa choose mu)(mu choose sigma)
times one coefficient of a Pochhammer ratio; ``_hermite_constant_term``
sums its sigma = () case alone, for the Hermite expectations.  Both read
those coefficients from one walk over mu, ``_hermite_mu_walk``.

Sign conventions follow the explicit expansion formulas and the
eigenfunction equations, cross-checked against the univariate classical
polynomials at n = 1.
"""

from fractions import Fraction

from . import binom, cache, jack, operators, partitions
from .errors import DomainError, PoleError
from .rational import N as N_PARAM
from .rational import as_exact, as_finite, homogeneous, ratio, rf, undivided
from .symfun import GENERIC, SymExpr, as_nvars, eval_numeric, expand_to_monomials

FAMILIES = ("hermite", "laguerre", "jacobi")


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


def _check_weight_param(value, name):
    """Numeric Laguerre/Jacobi exponents must exceed -1."""
    value = as_exact(value, name)
    if isinstance(value, Fraction) and value <= -1:
        raise DomainError("%s must be > -1, got %s" % (name, value))
    return value


@cache.memo
def _identity_values(alpha, kappa, m):
    """C_sigma(I_m) for every subpartition sigma of kappa, keyed by sigma.

    Sorted, the subpartitions list every sigma after its parent pi, sigma
    less its last box (l, c), and only the hooks of row l and of column c
    differ between the two, so

        C_sigma(I_m) = |sigma| C_pi(I_m) num / den,

    the ratio num / den being ``partitions._box_hook_ratio``'s:

        num = (m - l + 1 + alpha (c-1))
            prod_{r<l} (h - 1 + alpha (1+a_r)) (h + alpha a_r),
        den = c (1 + alpha (c-1))
            prod_{r<l} (h + alpha (1+a_r)) (h + 1 + alpha a_r),

    h = l - r, a_r = sigma_r - c.  A subpartition costs O(l) operations:
    for a Fraction alpha and a numeric m, num and den are int products
    and their ratio one Fraction; a symbolic alpha or m takes them in its
    field.  The dict is the memo table's own: callers must not change it.
    """
    values = {}
    for sigma in partitions.subpartitions_of(kappa):
        if not sigma:
            values[sigma] = alpha**0
            continue
        c = sigma[-1]
        parent = sigma[:-1] + (c - 1,) if c > 1 else sigma[:-1]
        num, den = partitions._box_hook_ratio(alpha, sigma, m)
        values[sigma] = values[parent] * ratio(partitions.weight(sigma) * num, den)
    return values


def _binomial_expansion(alpha, kappa, c1, m, values):
    """Coefficients (-1)^|sigma| v_sigma (c1)_kappa/(c1)_sigma C_kappa(I)/C_sigma(I)."""
    ident = _identity_values(alpha, kappa, m)
    ck_ident = ident[kappa]
    coeffs = {}
    for sigma, val in values.items():
        sign = -1 if partitions.weight(sigma) % 2 else 1
        coeffs[sigma] = sign * val * binom.gsfact_skew(alpha, c1, kappa, sigma) * (ck_ident / ident[sigma])
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
    big_g = g1 + g2 + (2 / alpha) * (m - 1) + 2
    rho_kappa = partitions.rho(alpha, kappa)

    def divisor(sigma):
        denom = big_g * (k - partitions.weight(sigma)) + rho_kappa - partitions.rho(alpha, sigma)
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
    for mu, kappa_mu, e in _hermite_mu_walk(alpha, kappa, m, k):
        j = partitions.weight(mu)
        for sigma, mu_sigma in binom.gbinomial_table(alpha, mu).items():
            s = partitions.weight(sigma)
            if (k - s) % 2 or 2 * j > k + s:
                continue
            term = kappa_mu * mu_sigma * e[(k - s) // 2]
            total = totals.get(sigma)
            totals[sigma] = term if total is None else total + term
    ident = _identity_values(alpha, kappa, m)
    coeffs = {
        sigma: total / alpha ** ((k - partitions.weight(sigma)) // 2) * (ident[kappa] / ident[sigma])
        for sigma, total in totals.items()
    }
    return OrthoExpansion("hermite", kappa, {"alpha": alpha}, nvars, coeffs)


def _hermite_mu_walk(alpha, kappa, m, top):
    """(mu, (-1)^(k-|mu|) (kappa choose mu), e) for each mu <= kappa, |mu| <= top.

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
        if j > top:
            continue
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


def _hermite_constant_term(alpha, kappa, m):
    """The coefficient of C_() in ``hermite2(alpha, kappa, m)``.

    alpha and kappa must be canonical, k = |kappa| even and m the scalar
    of ``_check_nvars``.  For sigma = () the formula of ``hermite2`` needs
    only (kappa choose mu): with h = k/2 the term is

        C_kappa(I_m) / alpha^h sum_{mu <= kappa, |mu| <= h}
            (-1)^(k-|mu|) (kappa choose mu) e_h(kappa/mu).
    """
    h = partitions.weight(kappa) // 2
    total = None
    for _, kappa_mu, e in _hermite_mu_walk(alpha, kappa, m, h):
        term = kappa_mu * e[h]
        total = term if total is None else total + term
    return total / alpha**h * jack.jack_identity_value(alpha, kappa, "C", m)


# ---------------------------------------------------------------------------
# Hermite, coefficient recurrence


def hermite(alpha, kappa, nvars=GENERIC):
    """Hermite polynomial via the two-box coefficient recurrence.

    Walking the eigenfunction equation down two units of weight at a time,

        v_sigma = sum (c_1 - c_2) (sigma^(i) choose sigma)
                  (sigma^(i)(j) choose sigma^(i)) v_{sigma^(i)(j)} / (k - s),

    the sum running over the two-box paths sigma -> sigma^(i) ->
    sigma^(i)(j) inside kappa, from v_kappa = 1 (``_hermite_values``).
    The recurrence is linear and free of the variable count, so the
    coefficient of C_sigma is v_sigma C_kappa(I)/C_sigma(I).
    """
    alpha = jack._as_alpha(alpha)
    kappa = partitions.as_partition(kappa)
    ident = _identity_values(alpha, kappa, _check_nvars(kappa, nvars))
    coeffs = {sigma: val * (ident[kappa] / ident[sigma]) for sigma, val in _hermite_values(alpha, kappa).items()}
    return OrthoExpansion("hermite", kappa, {"alpha": alpha}, nvars, coeffs)


def _hermite_values(alpha, kappa):
    """sigma -> v_sigma of ``hermite``'s two-box recurrence, from v_kappa = 1.

    alpha and kappa must be canonical.  c_1 and c_2 are the contents of a
    path's first and second boxes, the content of box (row, col) being
    col - 1 - (row - 1)/alpha: two boxes in one row weigh -1, and boxes in
    rows i != j weigh sigma_i - sigma_j - (i - j)/alpha, the opposite order
    the negative, so the two chains ending at one partition are subtracted
    before the weight multiplies them.

    With alpha = P / Q a weight is (P (sigma_i - sigma_j) - Q (i - j)) / P,
    and the coefficients are the undivided pairs of ``binom._contiguous``
    that ``binom.one_box_recurrence`` sums too: for a Fraction alpha each
    sigma's sum, chain differences included, is formed as ints over one
    unreduced denominator and v_sigma is one Fraction.  A symbolic alpha
    runs the same expressions in its field, with 1/alpha, the coefficients
    and the values v as field elements over the int 1.
    """
    k = partitions.weight(kappa)
    # 1/alpha = Q/P as ints for a Fraction alpha, (1/alpha, 1) in alpha's field
    p, q = homogeneous(alpha)
    rho_num, rho_den = undivided(q, p)
    inner = {kappa: 1}
    # reversed lexicographic order puts every sigma^(i)(j) before sigma
    for sigma in reversed(partitions.subpartitions_of(kappa)):
        s = partitions.weight(sigma)
        if s == k or (k - s) % 2:
            continue
        # end partition -> [weight of the order met first times rho_den,
        # chain difference as num, den]
        paths = {}
        for i in range(1, len(sigma) + 2):
            step = binom._row_increment(sigma, i)
            if step is None:
                continue
            first_num, first_den = binom._contiguous(p, q, sigma, i)
            si = sigma[i - 1] if i <= len(sigma) else 0
            for j in range(1, len(step) + 2):
                end = binom._row_increment(step, j)
                if end not in inner:
                    continue
                second_num, second_den = binom._contiguous(p, q, step, j)
                chain_num, chain_den = first_num * second_num, first_den * second_den
                path = paths.get(end)
                if path is not None:
                    path[1:] = path[1] * chain_den - chain_num * path[2], path[2] * chain_den
                    continue
                # content sigma_i - (i-1)/alpha of the first box less
                # step_j - (j-1)/alpha of the second; -1 in one row
                sj = step[j - 1] if j <= len(step) else 0
                paths[end] = [(si - sj) * rho_den - (i - j) * rho_num, chain_num, chain_den]
        if paths:
            num, den = 0, 1
            for end, (weight, chain_num, chain_den) in paths.items():
                value_num, value_den = homogeneous(inner[end])
                term_den = chain_den * value_den
                num, den = num * term_den + weight * chain_num * value_num * den, den * term_den
            inner[sigma] = ratio(num, rho_den * (den * (k - s)))
    return inner


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
    (rho_kappa + |kappa| (g1+g2+2+(2/alpha)(n-1))) P.
    """
    k = partitions.weight(expansion.kappa)
    if expansion.family in ("hermite", "laguerre"):
        return -k
    alpha = expansion.params["alpha"]
    n = expansion.nvars
    big_g = (
        expansion.params["g1"] + expansion.params["g2"] + 2 + (2 / alpha) * (n - 1)
    )
    return partitions.rho(alpha, expansion.kappa) + k * big_g


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
    ident = _identity_values(expansion.params["alpha"], expansion.kappa, Fraction(expansion.nvars))
    sums = [0] * (partitions.weight(expansion.kappa) + 1)
    for sigma, c in expansion.terms.items():
        sums[partitions.weight(sigma)] += c * ident[sigma]
    return sums


def laguerre_hermite_limit_check(alpha, kappa, n, gamma_grid, xs):
    """Deviation of the scaled Laguerre polynomials from the Hermite limit.

    Evaluates gamma^(-k/2) L(gamma + sqrt(gamma) x) against (-1)^k H(x) at
    the point xs for each gamma on an increasing grid; returns the list of
    absolute deviations, which should decrease along the grid.
    """
    alpha = jack._as_alpha(alpha)
    kappa = partitions.as_partition(kappa)
    k = partitions.weight(kappa)
    xs = [float(as_finite(x, "a coordinate")) for x in xs]
    if len(xs) != n:
        raise DomainError("point has %d coordinates, expected %d" % (len(xs), n))
    target = (-1) ** k * eval_numeric(hermite(alpha, kappa, n), xs, alpha)
    deviations = []
    for gamma in gamma_grid:
        gamma = as_exact(gamma, "gamma")
        root = float(gamma) ** 0.5
        point = [float(gamma) + root * x for x in xs]
        lag = eval_numeric(laguerre(alpha, kappa, gamma, n), point, alpha)
        scaled = lag / float(gamma) ** (k / 2.0)
        deviations.append(abs(scaled - target))
    return deviations
