"""Independent oracles used across the test suite.

These deliberately avoid the library's own algorithms: univariate
orthogonal polynomials come from exact moment Gram-Schmidt, generalized
binomial coefficients from the shifted-argument definition, Hermite
ensemble expectations from the two-variable rotation reduction,
subpartition enumeration from brute force over tuples, contiguous
binomial coefficients from hook products over the whole diagram, hook
products and one-box hook ratios from field arithmetic on every factor
(the library multiplies ints over a power of alpha's denominator),
generalized Pochhammer symbols row by row (the library multiplies box
factors homogeneously), and Jack tables at alpha = 1 from Kostka numbers
counted over semistandard tableaux.  ``jack_c_recurrence`` is the
Laplace-Beltrami recurrence run in the coefficient field itself, the
reference for the library's integer tables.  ``gbinomial_field``,
``hermite_values_field`` and ``m2jack_field`` run the binomial table,
the Hermite two-box recurrence (path by path) and the triangular sweep
into the C basis with every operation in the field, the reference for
the library's factored values.  ``largest_cdf_beta2`` is the beta = 2 largest-eigenvalue CDF as a
ratio of Hankel determinants of incomplete Gamma functions, in mpmath.
``next_layer_field`` is the series engine's per-box step with every
factor a + s a field element and one division per factor, the reference
for the library's step, which forms each term as ints over one
denominator.  ``power_sum_monomials`` expands a power sum into monomials
by adding one part at a time to the exponent vectors, apart from the
monomial products the library multiplies power sums with, and
``mono_product_by_rearrangements`` multiplies two monomials by testing
every rearrangement of one against every candidate sum, where the
library counts orbits.
"""

import itertools
import math
from fractions import Fraction

from mops import jack, m2jack, partitions
from mops.errors import PoleError
from mops.rational import GAMMA, G1, G2, rf
from mops.binom import sfact
from mops.symfun import SymExpr, _distinct_rearrangements


def brute_subpartitions(kappa):
    """All component-wise dominated non-increasing tuples, by enumeration."""
    if not kappa:
        return [()]
    ranges = [range(0, k + 1) for k in kappa]
    out = set()
    for tup in itertools.product(*ranges):
        if all(tup[i] >= tup[i + 1] for i in range(len(tup) - 1)):
            out.add(tuple(t for t in tup if t))
    return sorted(out)


def binomial_int(n, k):
    out = 1
    for t in range(k):
        out = out * (n - t) // (t + 1)
    return out


def monic_orthogonal(moments, degree):
    """Monic degree-d orthogonal polynomial from exact moments.

    Solves <p, x^j> = 0 for j < d by Gaussian elimination over the exact
    scalar field; returns the coefficient list [c_0, ..., c_{d-1}, 1].
    """
    d = degree
    if d == 0:
        return [1]
    rows = [[moments[i + j] for i in range(d)] + [-moments[d + j]] for j in range(d)]
    rows = [[rf(x) if isinstance(x, int) else x for x in row] for row in rows]
    for col in range(d):
        pivot = next(r for r in range(col, d) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for r in range(d):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return [rows[j][d] for j in range(d)] + [1]


def hermite_moments(count):
    """(2j-1)!! for even j, 0 for odd."""
    out = []
    for j in range(count):
        if j % 2:
            out.append(rf(0))
        else:
            v = 1
            for t in range(1, j, 2):
                v *= t
            out.append(rf(v))
    return out


def laguerre_moments(count):
    return [rf(1)] + [sfact(GAMMA + 1, j) for j in range(1, count)]


def jacobi_moments(count):
    return [rf(1)] + [
        sfact(G1 + 1, j) / sfact(G1 + G2 + 2, j) for j in range(1, count)
    ]


def _hooks(alpha, kappa, r0, c0):
    """(upper, lower) hooks of the square (r0+1, c0+1), read off the diagram."""
    arm = kappa[r0] - c0 - 1
    leg = sum(1 for part in kappa[r0 + 1 :] if part > c0)
    return leg + alpha * (1 + arm), leg + 1 + alpha * arm


def contiguous_all_boxes(alpha, sigma, i):
    """(sigma^(i) choose sigma) as a product over every square of sigma.

    A square in the column of the new box contributes its upper hook in
    sigma times its lower hook in sigma^(i); any other square its lower
    hook in sigma times its upper hook in sigma^(i).  The product is
    divided by j_sigma, the product of all upper and lower hooks of sigma.
    """
    grown = list(sigma) + [0] * (i - len(sigma))
    grown[i - 1] += 1
    grown = tuple(p for p in grown if p)
    new_col = grown[i - 1]
    num = j_sigma = alpha**0
    for r0, part in enumerate(sigma):
        for c0 in range(part):
            up_s, low_s = _hooks(alpha, sigma, r0, c0)
            up_g, low_g = _hooks(alpha, grown, r0, c0)
            if c0 + 1 == new_col:
                num = num * up_s * low_g
            else:
                num = num * low_s * up_g
            j_sigma = j_sigma * up_s * low_s
    return num / j_sigma


def hook_products_field(alpha, kappa):
    """(c, c', j) of ``partitions.hook_products``, every hook a field element.

    The library forms these products in ints for a Fraction alpha; here
    each hook leg + alpha (1 + arm), leg + 1 + alpha arm is multiplied in
    as it stands.
    """
    conj = [sum(1 for part in kappa if part > j0) for j0 in range(kappa[0] if kappa else 0)]
    c = cprime = alpha**0
    for i0, part in enumerate(kappa):
        for j0 in range(part):
            arm = part - j0 - 1
            leg = conj[j0] - i0 - 1
            c = c * (leg + alpha * (1 + arm))
            cprime = cprime * (leg + 1 + alpha * arm)
    return c, cprime, c * cprime


def box_hook_ratio_field(alpha, kappa):
    """(num, den) of ``partitions._box_hook_ratio``, in the field of alpha.

    The ratio alpha j_pi / j_kappa of kappa and its parent pi, kappa less
    its last box (l, c): num = prod_{r<l} (h - 1 + alpha (1+a_r))
    (h + alpha a_r) and den = c (1 + alpha (c-1)) prod_{r<l}
    (h + alpha (1+a_r)) (h + 1 + alpha a_r), h = l - r, a_r = kappa_r - c,
    each factor a field element.
    """
    l = len(kappa)
    c = kappa[-1]
    num = alpha**0
    den = c * (1 + alpha * (c - 1))
    for r0 in range(l - 1):
        h = l - 1 - r0
        arm = alpha * (kappa[r0] - c)
        num = num * ((h - 1 + alpha + arm) * (h + arm))
        den = den * ((h + alpha + arm) * (h + 1 + arm))
    return num, den


def gsfact_by_rows(alpha, r, kappa):
    """prod_i (r - (i-1)/alpha)_{kappa_i}, one shifted factorial per row.

    The library takes the product over the boxes of kappa, homogeneous in
    alpha and r; here each row's shifted factorial is formed in the field.
    """
    out = 1
    for i0, part in enumerate(kappa):
        out = out * sfact(r - i0 / alpha, part)
    return out


def gbinomial_from_definition(alpha, kappa, sigma, m):
    """(kappa choose sigma) from the shifted-argument expansion of C_kappa.

    Expands C_kappa(x_1+1, ..., x_m+1) explicitly, rewrites it in the Jack
    C basis weight by weight, and normalizes by the identity values.
    """
    cexp = jack.jack_expand(alpha, kappa, "C", m)
    shifted = {}
    for part, coeff in cexp.terms.items():
        for vec in _distinct_rearrangements(part, m):
            choices = [
                [(t, binomial_int(e, t)) for t in range(e + 1)] for e in vec
            ]
            for combo in itertools.product(*choices):
                exps = tuple(t for t, _ in combo)
                mult = 1
                for _, b in combo:
                    mult *= b
                value = coeff * mult
                if exps in shifted:
                    shifted[exps] = shifted[exps] + value
                else:
                    shifted[exps] = value
    terms = {}
    for vec, coeff in shifted.items():
        if tuple(sorted(vec, reverse=True)) == vec:
            terms[tuple(e for e in vec if e)] = coeff
    mono = SymExpr("m", terms, m)
    in_c = m2jack(alpha, mono, m)
    c_sig = in_c.coefficient(sigma)
    if c_sig == 0:
        return c_sig
    ident_kappa = jack.jack_identity_value(alpha, kappa, "C", m)
    ident_sigma = jack.jack_identity_value(alpha, sigma, "C", m)
    return c_sig * ident_sigma / ident_kappa


def hermite_expect_2vars(mono_terms, alpha):
    """E over the 2-variable 2/alpha-Hermite ensemble of a monomial expr.

    Rotates to u = (x+y)/sqrt2, v = (x-y)/sqrt2, under which the weight
    factorizes into a Gaussian in u and an |v|^(2/alpha)-weighted Gaussian
    in v; both factors have exact moments.
    """

    def moment_u(p):
        if p % 2:
            return 0
        v = 1
        for t in range(1, p, 2):
            v *= t
        return v

    def moment_v(q):
        if q % 2:
            return 0
        out = alpha**0
        c = 2 / alpha
        for t in range(1, q, 2):
            out = out * (c + t)
        return out

    total = rf(0) * alpha
    for part, coeff in mono_terms.items():
        if len(part) > 2:
            continue
        weight = sum(part)
        if weight % 2:
            continue
        scale = Fraction(1, 2 ** (weight // 2))
        for vec in _distinct_rearrangements(part, 2):
            a_exp, b_exp = vec
            for i in range(a_exp + 1):
                bi = binomial_int(a_exp, i)
                for j in range(b_exp + 1):
                    bj = binomial_int(b_exp, j)
                    sign = -1 if j % 2 else 1
                    mu = moment_u(a_exp - i + b_exp - j)
                    if mu == 0:
                        continue
                    mv = moment_v(i + j)
                    if mv == 0:
                        continue
                    total = total + coeff * scale * sign * bi * bj * mu * mv
    return total


def jack_j_table_per_move(kappa, length):
    """J_{kappa,lambda} as int lists in alpha, one move per row pair (i, j) and t.

    The recurrence of ``jack._jack_j_table`` without its grouping of the
    rows that hold equal parts: each move lambda -> mu adds
    2 (lambda_i - lambda_j + 2t) to mu's weight on its own.
    """
    # J_{kappa,kappa} is the product of the lower hooks alpha arm + leg + 1
    seed = [1]
    conj = partitions.conjugate(kappa)
    for r, part in enumerate(kappa):
        for c in range(part):
            arm, leg = part - c - 1, conj[c] - r - 1
            seed = [(leg + 1) * lo + arm * hi for lo, hi in itertools.zip_longest(seed, [0] + seed, fillvalue=0)]
    while len(seed) > 1 and not seed[-1]:
        seed.pop()
    table = {kappa: seed}
    a_kappa, b_kappa = jack._a_b(kappa)
    for lam in partitions.partitions_of(partitions.weight(kappa), max(kappa, default=0), length):
        weights = {}
        for j in range(1, len(lam)):
            for i in range(j):
                for t in range(1, min(lam[j], kappa[0] - lam[i]) + 1):
                    moved = list(lam)
                    moved[i] += t
                    moved[j] -= t
                    mu = tuple(sorted((p for p in moved if p), reverse=True))
                    if mu in table:
                        weights[mu] = weights.get(mu, 0) + 2 * (lam[i] - lam[j] + 2 * t)
        if not weights:
            continue
        total = []
        for mu, weight in weights.items():
            total = [c + weight * d for c, d in itertools.zip_longest(total, table[mu], fillvalue=0)]
        a_lam, b_lam = jack._a_b(lam)
        table[lam] = jack._divide_linear(total, a_kappa - a_lam, 2 * (b_kappa - b_lam))
    return table


def jack_c_recurrence(alpha, kappa):
    """lambda -> c_{kappa,lambda} for C_kappa, by the recurrence in the field.

    The Laplace-Beltrami recurrence of ``jack`` run on Fractions or
    RationalFunctions: every step divides by rho_kappa - rho_lambda, so
    it raises PoleError wherever one of those differences vanishes, even
    where the table itself is finite.
    """
    k = partitions.weight(kappa)
    c_upper = partitions.hook_products(alpha, kappa)[0]
    seed = alpha**k * math.factorial(k) / partitions._hook_divisor(c_upper, alpha, kappa)
    table = {kappa: seed}
    rho_kappa = partitions.rho(alpha, kappa)
    two_over_alpha = 2 / alpha
    for lam in partitions.partitions_of(k):
        if lam >= kappa or partitions.compare(lam, kappa, "dominance") != partitions.LESS:
            continue
        total = None
        for j in range(1, len(lam)):
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
            raise PoleError("alpha = %s zeroes rho_kappa - rho_lambda" % (alpha,))
        table[lam] = two_over_alpha * total / denom
    return table


def _grown(sigma, i):
    """sigma with one more box in row i (1-based), or None if that is no partition."""
    row = sigma[i - 1] if i <= len(sigma) else 0
    if i > len(sigma) + 1 or (i > 1 and sigma[i - 2] <= row):
        return None
    return sigma[: i - 1] + (row + 1,) + sigma[i:]


def gbinomial_field(alpha, kappa):
    """sigma -> (kappa choose sigma) by the one-box recurrence in the field.

    sum_i (sigma^(i) choose sigma)(kappa choose sigma^(i)) =
    (k - s)(kappa choose sigma), solved from (kappa choose kappa) = 1 with
    each contiguous coefficient from ``contiguous_all_boxes`` and every
    sum a field operation, where the library adds factored values once
    per table entry.
    """
    k = partitions.weight(kappa)
    table = {kappa: alpha**0}
    for sigma in sorted(brute_subpartitions(kappa), key=partitions.weight, reverse=True):
        if sigma == kappa:
            continue
        total = alpha * 0
        for i in range(1, len(sigma) + 2):
            up = _grown(sigma, i)
            if up in table:
                total = total + contiguous_all_boxes(alpha, sigma, i) * table[up]
        table[sigma] = total / (k - partitions.weight(sigma))
    return table


def hermite_values_field(alpha, kappa):
    """sigma -> v_sigma of ``orthopoly.hermite``'s recurrence, path by path, in the field.

    v_sigma = sum (c_1 - c_2) (sigma^(i) choose sigma) (tau^(j) choose tau)
    v_tau^(j) / (k - s) over every two-box path sigma -> tau = sigma^(i) ->
    tau^(j) inside kappa, c_1 and c_2 the contents col - 1 - (row-1)/alpha
    of the two boxes, from v_kappa = 1; the library shares the sums over
    the paths through one tau.
    """
    k = partitions.weight(kappa)
    inside = set(brute_subpartitions(kappa))
    values = {kappa: alpha**0}

    def content(part, i):
        return (part[i - 1] if i <= len(part) else 0) - (i - 1) / alpha

    for sigma in sorted(inside, key=partitions.weight, reverse=True):
        s = partitions.weight(sigma)
        if (k - s) % 2 or sigma == kappa:
            continue
        total = alpha * 0
        for i in range(1, len(sigma) + 2):
            tau = _grown(sigma, i)
            if tau not in inside:
                continue
            for j in range(1, len(tau) + 2):
                top = _grown(tau, j)
                if top in values:
                    weight = content(sigma, i) - content(tau, j)
                    total = total + weight * contiguous_all_boxes(alpha, sigma, i) * contiguous_all_boxes(alpha, tau, j) * values[top]
        values[sigma] = total / (k - s)
    return values


def m2jack_field(alpha, lam):
    """m_lam in the Jack C basis: the triangular solve, every step in the field.

    The columns are ``jack_c_recurrence``'s field tables, and each
    coefficient is updated by one field subtraction per column.
    """
    rest = {lam: alpha**0}
    out = {}
    while rest:
        mu = max(rest)
        value = rest.pop(mu)
        if not value:
            continue
        col = jack_c_recurrence(alpha, mu)
        scale = out[mu] = value / col[mu]
        for nu, c in col.items():
            if nu != mu:
                rest[nu] = rest.get(nu, 0) - scale * c
    return out


def kostka(shape, content):
    """Number of semistandard tableaux of the shape with the content.

    Fills the squares in reading order with entries 1..len(content), rows
    weakly increasing and columns strictly increasing.
    """
    squares = [(r, c) for r, part in enumerate(shape) for c in range(part)]
    left = list(content)
    filling = {}

    def count(index):
        if index == len(squares):
            return 1
        r, c = squares[index]
        low = max(filling.get((r, c - 1), 1), filling.get((r - 1, c), 0) + 1)
        total = 0
        for v in range(low, len(content) + 1):
            if left[v - 1]:
                left[v - 1] -= 1
                filling[(r, c)] = v
                total += count(index + 1)
                left[v - 1] += 1
        filling.pop((r, c), None)
        return total

    return count(0)


def hook_length_product(shape):
    """Product of the hook lengths arm + leg + 1 over the diagram."""
    out = 1
    for r0, part in enumerate(shape):
        for c0 in range(part):
            out *= _hooks(1, shape, r0, c0)[1]
    return out


def largest_cdf_beta2(gamma, m, x):
    """P[largest < x] for m eigenvalues with weight t^gamma e^(-t/2), beta = 2.

    By Andreief's identity the CDF is det[g(i+j+gamma+1, x/2)] /
    det[Gamma(i+j+gamma+1)] over 0 <= i, j < m, with g the lower incomplete
    Gamma function: two Hankel determinants of moments of the weight.
    """
    import mpmath as mp

    with mp.workdps(40):
        g = mp.mpf(Fraction(gamma).numerator) / Fraction(gamma).denominator
        half = mp.mpf(x) / 2
        top = mp.matrix(m, m)
        full = mp.matrix(m, m)
        for i in range(m):
            for j in range(m):
                top[i, j] = mp.gammainc(i + j + g + 1, 0, half)
                full[i, j] = mp.gamma(i + j + g + 1)
        return float(mp.det(top) / mp.det(full))


def power_sum_monomials(lam, n):
    """Monomial expansion of p_lam in n variables: dict nu -> int.

    p_lam = p_(lam_1) ... p_(lam_k); multiplying by p_r adds r to one entry
    of each exponent vector.  The coefficient of a sorted vector w is the
    sum, over its entries t >= r, of (count of t in w) times the
    coefficient of the vector with one t lowered to t - r.
    """

    def sort_desc(vec):
        return tuple(sorted(vec, reverse=True))

    cur = {(0,) * n: 1}
    for r in lam:
        candidates = set()
        for vec in cur:
            for u in set(vec):
                lst = list(vec)
                lst.remove(u)
                candidates.add(sort_desc(lst + [u + r]))
        new = {}
        for w in candidates:
            total = 0
            for t in set(w):
                if t < r:
                    continue
                lst = list(w)
                lst.remove(t)
                src = sort_desc(lst + [t - r])
                if src in cur:
                    total += w.count(t) * cur[src]
            if total:
                new[w] = total
        cur = new
    return {tuple(p for p in vec if p): c for vec, c in cur.items()}


def mono_product_by_rearrangements(lam, mu, n):
    """m_lam * m_mu in n variables: dict nu -> int, by direct counting.

    Every sorted sum lam + b over the distinct rearrangements b of mu is a
    candidate nu; its coefficient counts the rearrangements b of mu whose
    difference nu - b is a rearrangement of lam.
    """

    def sort_desc(vec):
        return tuple(sorted(vec, reverse=True))

    if len(lam) > n or len(mu) > n:
        return {}
    lam_vec = tuple(lam) + (0,) * (n - len(lam))
    rearr = _distinct_rearrangements(mu, n)
    candidates = {sort_desc(a + b for a, b in zip(lam_vec, bvec)) for bvec in rearr}
    lam_sorted = sort_desc(lam_vec)
    out = {}
    for nu in candidates:
        count = 0
        for bvec in rearr:
            diff = tuple(a - b for a, b in zip(nu, bvec))
            if min(diff, default=0) >= 0 and sort_desc(diff) == lam_sorted:
                count += 1
        if count:
            out[tuple(p for p in nu if p)] = count
    return out


def next_layer_field(alpha, upper, lower, m, width, k, prev):
    """The layer of degree k of a pFq series from the layer prev of k - 1.

    The arguments and the result are those of ``hypergeom._next_layer``.
    Each term is its parent's times alpha j_pi / j_kappa prod (a_i + s) /
    prod (b_j + s), s = c - 1 - (l-1)/alpha for the last box (l, c), with
    j_pi and j_kappa the whole hook products of ``hook_products_field``;
    every factor is a field element.  A vanishing j_kappa raises the
    library's PoleError before any lower parameter is read.
    """
    row_shift = [i / alpha for i in range(m)]
    layer = {}
    for kappa in partitions.partitions_of(k, max_part=width, max_len=m):
        l = len(kappa)
        c = kappa[-1]
        parent = kappa[:-1] + (c - 1,) if c > 1 else kappa[:-1]
        s = c - 1 - row_shift[l - 1]
        j_kappa = partitions._hook_divisor(hook_products_field(alpha, kappa)[2], alpha, kappa)
        num, den = alpha * hook_products_field(alpha, parent)[2] / j_kappa, 1
        for a_i in upper:
            num = num * (a_i + s)
        for b_j in lower:
            factor = b_j + s
            if factor == 0:
                raise PoleError("lower parameter %s hits a pole at kappa=%r" % (b_j, kappa))
            den = den * factor
        layer[kappa] = prev[parent] * (num / den)
    return layer
