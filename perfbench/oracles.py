"""Float oracles that share no code with mops.

Each oracle computes a quantity the library also computes, from a
different formula, in mpmath at 30 significant digits:

* the largest-eigenvalue CDF of the beta = 2 Laguerre ensemble (alpha = 1)
  as a Hankel determinant of lower incomplete gamma functions;
* the same CDF at beta = 1 (alpha = 2) as a de Bruijn Pfaffian of
  one-dimensional quadratures;
* the single-matrix (m = 1) CDF as a regularized incomplete gamma function;
* the smallest-eigenvalue density at beta = 2 as minus the derivative of a
  Hankel determinant of upper incomplete gamma functions;
* the level density of the Gaussian ensemble at even beta, by integrating
  the Vandermonde power against Gaussian moments;
* Schur functions (the alpha = 1 Jack polynomials) by the bialternant
  formula, and the truncated alpha = 1 hypergeometric series built on them.

The ensembles use the library's weights: x^gamma e^(-x/2) |Delta|^beta on
(0, inf) for Laguerre and e^(-x^2/2) |Delta|^beta on the line for Hermite.
"""

import math
from fractions import Fraction

import mpmath as mp

DPS = 30


def _mpf(value):
    """mpf from an int, Fraction, decimal string, float or mpf, exactly."""
    if isinstance(value, (int, str, Fraction)):
        value = Fraction(value)
        return mp.mpf(value.numerator) / value.denominator
    return mp.mpf(value)


def cdf_beta2(gamma, m, x):
    """P[largest < x], beta = 2: det[gammainc(i+j+g+1, 0, x/2)] / det[Gamma(..)]."""
    with mp.workdps(DPS):
        g = _mpf(gamma)
        half = _mpf(x) / 2
        top = mp.matrix(m, m)
        full = mp.matrix(m, m)
        for i in range(m):
            for j in range(m):
                s = i + j + g + 1
                top[i, j] = mp.gammainc(s, 0, half)
                full[i, j] = mp.gamma(s)
        return float(mp.det(top) / mp.det(full))


def cdf_m1(gamma, x):
    """P[x_1 < x] for a single eigenvalue with weight t^gamma e^(-t/2)."""
    with mp.workdps(DPS):
        return float(mp.gammainc(_mpf(gamma) + 1, 0, _mpf(x) / 2, regularized=True))


def _pfaffian4(a):
    return a[0][1] * a[2][3] - a[0][2] * a[1][3] + a[0][3] * a[1][2]


def _f_phi_integral(si, cj, x):
    """int_0^x F(z) z^cj e^(-z/2) dz with F(z) = int_0^z t^(si-1) e^(-t/2) dt.

    F(z) = z^si e^(-z/2) sum_k (z/2)^k / (si)_(k+1), so the integral is
    sum_k 2^-k / (si)_(k+1) * gamma(si + cj + k + 1, x), a series of positive
    terms (x = inf gives complete Gamma functions).
    """
    total = mp.mpf(0)
    poch = si
    k = 0
    while True:
        order = si + cj + k + 1
        inc = mp.gamma(order) if x == mp.inf else mp.gammainc(order, 0, x)
        term = inc / (2**k * poch)
        total += term
        if term < total * mp.eps:
            return total
        k += 1
        poch *= si + k


def _debruijn_odd3(gamma, upper):
    """Integral over 0 < y1 < y2 < y3 < upper of det[y_j^i w(y_j)], beta = 1.

    de Bruijn: for three functions phi_i(t) = t^i w(t), the ordered integral
    of det[phi_i(y_j)] is the Pfaffian of the 4 x 4 antisymmetric matrix with
    a_ij = int_0^upper (F_i phi_j - F_j phi_i) and a_i3 = F_i(upper), where
    F_i(z) = int_0^z phi_i and w(t) = t^gamma e^(-t/2).
    """
    g = _mpf(gamma)
    a = [[mp.mpf(0)] * 4 for _ in range(4)]
    for i in range(3):
        for j in range(i + 1, 3):
            val = _f_phi_integral(i + g + 1, j + g, upper) - _f_phi_integral(
                j + g + 1, i + g, upper
            )
            a[i][j], a[j][i] = val, -val
        s = i + g + 1
        tail = 2**s * (mp.gamma(s) if upper == mp.inf else mp.gammainc(s, 0, upper / 2))
        a[i][3], a[3][i] = tail, -tail
    return _pfaffian4(a)


def cdf_beta1_m3(gamma, x):
    """P[largest < x], beta = 1, three eigenvalues (de Bruijn Pfaffians)."""
    with mp.workdps(DPS):
        return float(_debruijn_odd3(gamma, _mpf(x)) / _debruijn_odd3(gamma, mp.inf))


def smallest_density_beta2(p, m, x):
    """Density of the smallest eigenvalue, beta = 2, weight t^p e^(-t/2).

    S(x) = P[smallest > x] = det[Gamma(i+j+p+1, x/2)] / det[Gamma(i+j+p+1)];
    the density -S'(x) is a sum of determinants with one column differentiated.
    """
    with mp.workdps(DPS):
        x = _mpf(x)
        half = x / 2
        upper = [[mp.gammainc(i + j + p + 1, half) for j in range(m)] for i in range(m)]
        deriv = [
            [-(half ** (i + j + p)) * mp.exp(-half) / 2 for j in range(m)] for i in range(m)
        ]
        full = mp.det(mp.matrix([[mp.gamma(i + j + p + 1) for j in range(m)] for i in range(m)]))
        total = mp.mpf(0)
        for col in range(m):
            rows = [
                [deriv[i][j] if j == col else upper[i][j] for j in range(m)] for i in range(m)
            ]
            total += mp.det(mp.matrix(rows))
        return float(-total / full)


def _gauss_moment(k):
    """E[y^k] for a standard normal y: (k-1)!! for even k, 0 for odd k."""
    if k % 2:
        return 0
    out = 1
    for t in range(k - 1, 0, -2):
        out *= t
    return out


def _poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def level_density_coeffs(beta, n):
    """Exact q[s] with rho(x) = exp(-x^2/2)/sqrt(2 pi) sum_s q[s] x^s.

    rho is the one-eigenvalue marginal of e^(-sum x^2/2) |Delta|^beta (beta
    even), found by expanding prod_j (x - y_j)^beta Delta(y)^beta in
    (x, y_1..y_{n-1}) and replacing each y power by its Gaussian moment.
    """
    if beta % 2 or beta < 2:
        raise ValueError("needs an even beta")
    nv = n  # variable 0 is x, the rest are y_1..y_{n-1}

    def unit(i):
        return tuple(1 if t == i else 0 for t in range(nv))

    def linear(i, j):
        """y_i - y_j (or x - y_j when i = 0)."""
        return {unit(i): 1, unit(j): -1}

    poly = {tuple([0] * nv): 1}
    pairs = [(i, j) for i in range(nv) for j in range(i + 1, nv)]
    for i, j in pairs:
        factor = {tuple([0] * nv): 1}
        for _ in range(beta):
            factor = _poly_mul(factor, linear(i, j))
        poly = _poly_mul(poly, factor)
    q = {}
    for e, c in poly.items():
        w = c
        for k in e[1:]:
            w *= _gauss_moment(k)
        if w:
            q[e[0]] = q.get(e[0], 0) + w
    mass = sum(c * _gauss_moment(s) for s, c in q.items())
    deg = max(q)
    return [Fraction(q.get(s, 0), mass) for s in range(deg + 1)]


def level_density(coeffs, x, scaled_by=None):
    """Evaluate the level density from exact coefficients, optionally scaled."""
    with mp.workdps(DPS):
        x = _mpf(x)
        c = mp.mpf(1)
        if scaled_by is not None:
            c = mp.sqrt(scaled_by)
            x = c * x
        poly = mp.mpf(0)
        for s in range(len(coeffs) - 1, -1, -1):
            poly = poly * x + _mpf(coeffs[s])
        return float(c * mp.exp(-x * x / 2) / mp.sqrt(2 * mp.pi) * poly)


def schur(kappa, xs):
    """Schur function s_kappa at a point with distinct coordinates (bialternant)."""
    n = len(xs)
    parts = list(kappa) + [0] * (n - len(kappa))
    xs = [_mpf(x) for x in xs]
    num = mp.matrix([[x ** (parts[j] + n - 1 - j) for j in range(n)] for x in xs])
    den = mp.matrix([[x ** (n - 1 - j) for j in range(n)] for x in xs])
    return mp.det(num) / mp.det(den)


def _hooks(kappa):
    conj = [sum(1 for p in kappa if p > j) for j in range(kappa[0])] if kappa else []
    out = 1
    for i, part in enumerate(kappa):
        for j in range(part):
            out *= (part - j - 1) + (conj[j] - i - 1) + 1
    return out


def jack_c_alpha1(kappa, xs):
    """C_kappa at alpha = 1: |kappa|! / (hook product) * s_kappa."""
    with mp.workdps(DPS):
        k = sum(kappa)
        return float(mp.mpf(math.factorial(k)) / _hooks(kappa) * schur(kappa, xs))


def _partitions_at_most(k, parts, largest=None):
    largest = k if largest is None else largest
    if k == 0:
        yield ()
        return
    if parts == 0:
        return
    for first in range(min(k, largest), 0, -1):
        for rest in _partitions_at_most(k - first, parts - 1, first):
            yield (first,) + rest


def _poch_alpha1(a, kappa):
    out = Fraction(1)
    for i, part in enumerate(kappa):
        for j in range(part):
            out *= a - i + j
    return out


def hypergeom_alpha1(upper, lower, xs, limit):
    """Truncated pFq at alpha = 1: sum over |kappa| <= limit of
    prod (a)_kappa / prod (b)_kappa * s_kappa(x) / (hook product)."""
    with mp.workdps(DPS):
        total = mp.mpf(0)
        for k in range(limit + 1):
            for kappa in _partitions_at_most(k, len(xs)):
                coeff = Fraction(1, _hooks(kappa)) if kappa else Fraction(1)
                for a in upper:
                    coeff *= _poch_alpha1(Fraction(a), kappa)
                for b in lower:
                    coeff /= _poch_alpha1(Fraction(b), kappa)
                total += _mpf(coeff) * schur(kappa, xs)
        return float(total)


def exp_partial_sum(limit):
    """sum_{k <= limit} 1/k!, exactly: the truncated 0F0 at x = 1, m = 1."""
    return sum(Fraction(1, math.factorial(k)) for k in range(limit + 1))


def kostka_row(shape, weight):
    """Kostka numbers K_{shape, lambda} for every partition lambda of weight.

    Counts semistandard tableaux by stripping horizontal strips, with no
    use of Jack or symmetric-function code.
    """
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def count(sh, content):
        if not content:
            return 1 if not sh else 0
        last = content[-1]
        rest = content[:-1]
        total = 0
        # remove a horizontal strip of size `last` from sh
        rows = list(sh)

        def strips(i, left, cur):
            nonlocal total
            if i == len(rows):
                if left == 0:
                    new = tuple(p for p in cur if p)
                    total += count(new, rest)
                return
            below = rows[i + 1] if i + 1 < len(rows) else 0
            for take in range(0, min(left, rows[i] - below) + 1):
                cur.append(rows[i] - take)
                strips(i + 1, left - take, cur)
                cur.pop()

        strips(0, last, [])
        return total

    out = {}
    for lam in _partitions_at_most(weight, weight):
        out[lam] = count(tuple(shape), lam)
    return out
