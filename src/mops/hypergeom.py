"""Hypergeometric functions of matrix argument and eigenvalue statistics.

One series engine, ``_next_layer``, serves every function here.  It
walks  pFq(a; b; x) = sum_k sum_kappa prod (a_i)_kappa / (k! prod (b_j)_kappa)
C_kappa(x)  layer by layer in total degree k, written in J's
normalization: C_kappa = alpha^k k! J_kappa / j_kappa, so each layer gives
its partitions with the coefficients of J_kappa,

    T_kappa = alpha^k prod (a_i)_kappa / (j_kappa prod (b_j)_kappa),

j_kappa the product of kappa's upper and lower hooks.  Only the
partitions that can contribute are enumerated: at most m parts (J_kappa
vanishes on m variables otherwise) and, when an upper parameter is 0 or
a negative integer -p, parts of at most p (its Pochhammer symbol vanishes
beyond), which also makes the series terminate at degree p m: at degree
0 for the parameter 0, whatever alpha.

Every term is updated from its parent, the partition less its last box,
in the previous layer (after Koev and Edelman, *The efficient evaluation
of the hypergeometric function of a matrix argument*, Math. Comp. 2006):
the box (l, c) multiplies each Pochhammer symbol (a)_kappa by
a + c - 1 - (l-1)/alpha, and changes only the hooks of row l and column c,
so a partition costs O(m + p + q) operations instead of O(|kappa|).
For alpha = P/Q the box's s = c - 1 - (l-1)/alpha is t/P with
t = (c-1)P - (l-1)Q, so a parameter A/D gives a + s = (AP + Dt)/(DP).
``_next_layer`` multiplies these numerators and denominators, the
undivided pair of ``partitions._box_hook_ratio``'s hook ratio and the
parent's term into one num/den per partition: for a Fraction alpha and
Fraction parameters both are ints, a pole is the int test BP + Et == 0,
and each term costs one Fraction.  A layer is summed as ints over the
least common denominator of its terms and divided once.  A symbolic
alpha or parameter runs the same expressions in its field.  A vanishing
hook product is a pole of the step at the first partition that has it,
at the identity and at an explicit point alike.

The identity is the same step with one more upper parameter: J_kappa(I_m)
= alpha^k (m/alpha)_kappa (Stanley 1989), so the layer sums
c_k = sum_kappa coeff_kappa C_kappa(I_m) are alpha^k times the layer sums
of the series with m/alpha appended.  They depend on (alpha, a, b, m)
alone, not on the point.  So ``_identity_sums`` holds one exact prefix
c_0..c_K per series in a ``cache.memo`` table, together with the layer
of degree K to resume from (never more than that one layer of terms),
and a later call extends it only past K.  The points of a curve thus
share their sums, and a point below the degree already held costs no
series work.  The callers differ only in how they fold the sums and when
they stop:

- ``ghypergeom`` sums the series at the point, stopping at termination,
  an explicit degree limit or a relative tolerance (p >= q+2, and
  p = q+1 at a point with some |x_i| > 1, are refused without a limit).
  Scalar-identity arguments x I_m read the held sums and multiply each by
  x^k.  At an explicit point, exact or dyadic, each layer of
  ``_series_layers`` is sum T_kappa J_kappa(x), with J_kappa(x) from
  ``jack.point_values``: the branching rule over horizontal strips, one
  value per partition and variable count and no monomial table.  A layer
  is summed over one common denominator, and a float point rounds the
  truncated sum once.
- ``smallest_eig_terms`` is the terminating 2F0(-p, m/alpha+1; ; I_{m-1}).
  It and the level density are exact polynomials, held as ints over one
  denominator: each point sums one by ``jack._horner`` at the dyadic x and
  rounds it once, with its exponential weight, by ``to_float``.
- ``largest_eig_cdf`` is the Kummer form e^(-m x/2) 1F1(b-a; b; x/2 I_m)
  of 1F1(a; b; -x/2 I_m), whose terms are all positive, summed as a
  logarithm (log-add-exp of the terms' exact logs), so no term or partial
  sum needs to lie in the float range.
"""

import itertools
import math
from fractions import Fraction

from . import binom, cache, jack, orthopoly, partitions
from .errors import ConvergenceError, DomainError, PoleError
from .rational import (
    RationalFunction,
    as_exact,
    as_finite,
    as_int,
    common_denominator,
    homogeneous,
    ratio,
    rf,
    to_float,
)

DEGREE_CAP = 400


def _negative_integer_bound(values):
    """Smallest p >= 0 with some upper parameter equal to -p, else None.

    The parameter 0 gives 0: (0)_kappa vanishes for every kappa of degree
    >= 1, so the series is its term of degree 0.  Callers test the bound
    with ``is None``.
    """
    best = None
    for v in values:
        v = as_exact(v, "an upper parameter")
        if isinstance(v, Fraction) and v <= 0 and v.denominator == 1:
            p = -int(v)
            best = p if best is None else min(best, p)
    return best


def _check_tol(tol):
    """Raise DomainError unless the tolerance is a finite number > 0."""
    if not as_finite(tol, "tol") > 0:
        raise DomainError("tol must be > 0, got %r" % (tol,))


def _next_layer(alpha, upper, lower, m, width, k, prev):
    """The layer of degree k >= 1 of a pFq series on m variables, from prev.

    A layer maps every partition kappa of k with at most m parts and parts
    at most ``width`` (None: unbounded), in decreasing lexicographic order,
    to its term, the coefficient of J_kappa:

        T_kappa = alpha^k prod (a_i)_kappa / (j_kappa prod (b_j)_kappa),

    which is coeff_kappa = prod (a_i)_kappa / (k! prod (b_j)_kappa) times
    C's factor alpha^k k! / j_kappa of J (``jack._from_j``), so that
    T_kappa J_kappa(x) = coeff_kappa C_kappa(x).  prev is the layer of
    degree k - 1.

    Each term comes from the previous layer's term of its parent pi, kappa
    less its last box (l, c): l = len(kappa), c = kappa_l.  With
    s = c - 1 - (l-1)/alpha, the box adds the factor a + s to every
    Pochhammer symbol (a)_kappa, so

        T_kappa / T_pi = h prod (a_i + s) / prod (b_j + s),

    with h = alpha j_pi / j_kappa from ``partitions._box_hook_ratio`` (only
    the hooks of row l and of column c change).  PoleError is raised when
    the hooks of kappa vanish, and then when some b_j + s is 0.

    The term is formed as one num / den.  With alpha = P / Q, s = t / P
    for t = (c-1) P - (l-1) Q, and a parameter A / D gives
    a + s = (A P + D t) / (D P).  The denominators D P are the same for
    every box and are multiplied in once per layer.  So for a Fraction
    alpha and Fraction parameters num and den are ints, h's pair and the
    parent's term included, the pole test is the int test B P + E t == 0
    for b = B / E, and a partition costs one Fraction.  A symbolic alpha
    or parameter takes the same expressions in its field.  A partition
    costs O(m + p + q) operations.
    """
    p, q = homogeneous(alpha)
    uppers = [homogeneous(a_i) for a_i in upper]
    lowers = [homogeneous(b_j) for b_j in lower]
    # prod (E_j P) / prod (D_i P), the part of the ratio every box shares
    num0 = math.prod(e for _, e in lowers) * p ** max(len(lower) - len(upper), 0)
    den0 = math.prod(d for _, d in uppers) * p ** max(len(upper) - len(lower), 0)
    layer = {}
    for kappa in partitions.partitions_of(k, max_part=width, max_len=m):
        l = len(kappa)
        c = kappa[-1]
        parent = kappa[:-1] + (c - 1,) if c > 1 else kappa[:-1]
        t = (c - 1) * p - (l - 1) * q
        num, den = partitions._box_hook_ratio(p, q, kappa)
        num, den = num * num0, den * den0
        for a_num, a_den in uppers:
            num = num * (a_num * p + a_den * t)
        for (b_num, b_den), b_j in zip(lowers, lower):
            factor = b_num * p + b_den * t
            if factor == 0:
                raise PoleError(
                    "lower parameter %s hits a pole at kappa=%r" % (b_j, kappa)
                )
            den = den * factor
        prev_num, prev_den = homogeneous(prev[parent])
        layer[kappa] = ratio(prev_num * num, prev_den * den)
    return layer


def _series_layers(alpha, upper, lower, m, width=None):
    """Yield the layers k = 0, 1, 2, ... of a pFq series on m variables.

    Each layer is the list of (kappa, T_kappa) pairs of ``_next_layer``;
    the terms start from alpha**0 at k = 0, so they stay in alpha's field.
    With a width the generator ends after degree width * m, the last layer
    that can be non-empty.
    """
    layer = {(): alpha**0}
    yield list(layer.items())
    for k in itertools.count(1) if width is None else range(1, width * m + 1):
        layer = _next_layer(alpha, upper, lower, m, width, k, layer)
        yield list(layer.items())


class _HeldPrefix:
    """The held part of one at-identity series: ``state = (sums, frontier)``.

    sums is the tuple c_0..c_K of layer sums and frontier the layer of
    degree K, the one needed to resume.  The state is only ever replaced
    whole, by a longer prefix of the same sequence.
    """

    __slots__ = ("state",)

    def __init__(self, one):
        self.state = ((one,), {(): one})


@cache.memo
def _held_prefix(alpha, upper, lower, m, width):
    return _HeldPrefix(alpha**0)


def _identity_sums(alpha, upper, lower, m, width=None):
    """Yield c_k = sum over kappa of k of coeff_kappa C_kappa(I_m), k = 0, 1, ...

    c_k = sum T_kappa J_kappa(I_m), and J_kappa(I_m) = alpha^k (m/alpha)_kappa
    (Stanley 1989), so c_k is alpha^k times the layer sum of the same
    series with one more upper parameter, m/alpha.  None stands for an
    empty layer.  The sums come from the prefix held for
    (alpha, upper, lower, m, width), which is extended layer by layer, and
    kept, only past the highest degree already held.  With a width the
    generator ends after degree width * m.
    """
    held = _held_prefix(alpha, tuple(upper), tuple(lower), m, width)
    upper = list(upper) + [m / alpha]
    for k in itertools.count() if width is None else range(width * m + 1):
        sums, frontier = held.state
        while k >= len(sums):
            degree = len(sums)
            frontier = _next_layer(alpha, upper, lower, m, width, degree, frontier)
            nums, d = common_denominator(frontier.values())
            sums += (ratio(sum(nums), d) * alpha**degree if frontier else None,)
            held.state = (sums, frontier)
        yield sums[k]


def _layer_at(terms, j_at):
    """sum T_kappa J_kappa(x) over one layer's (kappa, T_kappa), in series order.

    j_at(kappa) is J_kappa(x) as an int pair (``jack.point_values``), and
    a zero term asks for none.  The terms are summed over their least
    common denominator and divided once.
    """
    pairs = []
    for kappa, term in terms:
        if term:
            j_num, j_den = j_at(kappa)
            pairs.append((term.numerator * j_num, term.denominator * j_den))
    d = math.lcm(*(den for _, den in pairs))
    return Fraction(sum(num * (d // den) for num, den in pairs), d)


def classify(upper, lower):
    """Convergence class of pFq: terminating, entire, boundary or divergent.

    'boundary' is the p = q+1 case with a finite convergence radius;
    'divergent' (p >= q+2, no negative-integer upper parameter) only
    admits explicit truncation.
    """
    if _negative_integer_bound(upper) is not None:
        return "terminating"
    p, q = len(upper), len(lower)
    if p <= q:
        return "entire"
    if p == q + 1:
        return "boundary"
    return "divergent"


def ghypergeom(alpha, upper, lower, arg, limit=None, tol=None):
    """Evaluate pFq of matrix argument.

    arg is ('xid', x, m) for the scalar-identity point x I_m (x may be a
    number or a rational function, kept exact), or ('vec', xs) for an
    explicit numeric point.  Exactly one of termination, limit, or tol
    must make the sum finite; limit is an int >= 0, tol a finite number > 0.
    A numeric point or a tolerance needs alpha, the parameters and x to be
    finite numbers.  A point with a float coordinate gives a float; an
    exact or empty point gives an exact value.  At an explicit point the
    float coordinates are their exact dyadic values, every layer is the
    exact sum of T_kappa J_kappa(x) with J_kappa(x) from
    ``jack.point_values``, and only the truncated total is rounded.  A
    vanishing hook product raises PoleError at the point as at x I_m.
    """
    if limit is not None:
        as_int(limit, "limit")
    if tol is not None:
        _check_tol(tol)
    alpha = jack._as_alpha(alpha)
    upper = [as_exact(v, "an upper parameter") for v in upper]
    lower = [as_exact(v, "a lower parameter") for v in lower]
    scalars = [alpha] + upper + lower
    kind, payload = arg[0], arg[1:]
    if kind == "xid":
        x, m = payload
        x = as_exact(x, "the point x")
        m = as_int(m, "m")
        scalars.append(x)
    elif kind == "vec":
        (xs,) = payload
        xs = [as_finite(v, "a coordinate") for v in xs]
        m = len(xs)
    else:
        raise DomainError("argument must be ('xid', x, m) or ('vec', xs)")
    # a numeric point and a tolerance test take floats of every term
    if kind == "vec" or tol is not None:
        for v in scalars:
            if isinstance(v, RationalFunction):
                raise DomainError("numeric evaluation needs numeric parameters, got %s" % v.text())
    width = _negative_integer_bound(upper)
    terminating = width is not None
    if terminating:
        max_degree = width * m
        if limit is not None:
            max_degree = min(max_degree, limit)
    elif limit is not None:
        max_degree = limit
    elif tol is not None:
        # p = q+1 converges only where every |x_i| <= 1, p >= q+2 nowhere
        radius = max(map(abs, xs), default=0) if kind == "vec" else abs(x) if m else 0
        if len(upper) > len(lower) + (radius <= 1):
            raise DomainError("%dF%d diverges at this point; give a degree limit" % (len(upper), len(lower)))
        max_degree = DEGREE_CAP
    else:
        raise DomainError("non-terminating series needs a degree limit or tolerance")

    if kind == "xid":
        layers = (
            None if c_k is None else c_k * x**k
            for k, c_k in enumerate(_identity_sums(alpha, upper, lower, m, width))
        )
    else:
        # a float coordinate is a dyadic Fraction: the layers are exact
        j_at = jack.point_values(alpha, [Fraction(v) if isinstance(v, float) else v for v in xs])
        layers = (_layer_at(terms, j_at) if terms else None for terms in _series_layers(alpha, upper, lower, m, width))
    rounded = kind == "vec" and any(isinstance(v, float) for v in xs)
    total = None
    for k, layer in zip(range(max_degree + 1), layers):
        if layer is None:  # no partition of k >= 1 fits in m = 0 parts
            break
        total = layer if total is None else total + layer
        if tol is not None and k > 0 and abs(to_float(layer)) <= tol * max(abs(to_float(total)), 1e-300):
            break
    else:
        if tol is not None and not terminating and limit is None:
            raise ConvergenceError(
                "series did not reach tolerance %g by degree %d" % (tol, max_degree),
                partial=to_float(total) if rounded else total,
            )
    total = total if total is not None else 0
    return to_float(total) if rounded else total


# ---------------------------------------------------------------------------
# smallest eigenvalue of the 2/alpha-Laguerre ensemble


def _numeric_alpha(alpha):
    """alpha as a positive Fraction; the eigenvalue curves are numeric."""
    alpha = jack._as_alpha(alpha)
    if not (isinstance(alpha, Fraction) and alpha > 0):
        raise DomainError("eigenvalue distributions need a numeric alpha > 0, got %s" % rf(alpha).text())
    return alpha


def _eig_args(alpha, p, m):
    """(alpha, p, m) checked before ``_smallest_eig_polynomial`` keys on them: 2.0 hashes as 2."""
    return _numeric_alpha(alpha), as_int(p, "p", 1), as_int(m, "m", 1)


def smallest_eig_terms(alpha, p, m):
    """Exact coefficients c_k of the terminating 2F0 factor.

    The density is x^(p m) exp(-x m / 2) sum_k c_k (-2/x)^k with
    c_k = sum over kappa of k inside the p x (m-1) box of
    (-p)_kappa (m/alpha + 1)_kappa C_kappa(I_{m-1}) / k!.
    """
    alpha, p, m = _eig_args(alpha, p, m)
    a1 = Fraction(-p)
    a2 = Fraction(m) / alpha + 1
    return list(_identity_sums(alpha, (a1, a2), (), m - 1, p))


@cache.memo
def _smallest_eig_polynomial(alpha, p, m):
    """(ints, d): c_k (-2)^k at x^(p m - k), k <= p (m-1), as ints over one d."""
    ints, d = common_denominator(smallest_eig_terms(alpha, p, m))
    return (0,) * p + tuple(c * (-2) ** k for k, c in enumerate(ints))[::-1], d


def _weighted_value(curve, x, log_weight):
    """(sum_i ints[i] x^i / d) e^log_weight for curve = (ints, d), rounded once."""
    ints, d = curve
    num, den = jack._horner(ints, x)
    return to_float((num, den * d), log_weight)


def smallest_eig_density(alpha, p, m, x):
    """Unnormalized smallest-eigenvalue density at x > 0."""
    if as_finite(x, "x") <= 0:
        raise DomainError("density is supported on x > 0")
    return _weighted_value(_smallest_eig_polynomial(*_eig_args(alpha, p, m)), x, -m * float(x) / 2)


def smallest_eig_mass(alpha, p, m):
    """The exact total mass, from int_0^inf x^e e^(-m x/2) dx = e! (2/m)^(e+1)."""
    ints, d = _smallest_eig_polynomial(*_eig_args(alpha, p, m))
    return sum(c * math.factorial(e) * Fraction(2, m) ** (e + 1) for e, c in enumerate(ints) if c) / d


def smallest_eig_density_normalized(alpha, p, m, xs):
    """Normalized density on a grid; returns (values, mass_used), the mass exact."""
    xs = [as_finite(x, "a grid point") for x in xs]
    alpha, p, m = _eig_args(alpha, p, m)
    mass = smallest_eig_mass(alpha, p, m)
    ints, d = _smallest_eig_polynomial(alpha, p, m)
    curve = [c * mass.denominator for c in ints], d * mass.numerator
    return [_weighted_value(curve, x, -m * float(x) / 2) if x > 0 else 0.0 for x in xs], mass


# ---------------------------------------------------------------------------
# largest eigenvalue distribution


def largest_eig_cdf(alpha, gamma, m, x, tol=1e-10):
    """P[largest eigenvalue < x] for the 2/alpha-Laguerre ensemble.

    The CDF is pref(x) 1F1(a; b; -x/2 I_m) with a = gamma + (m-1)/alpha + 1
    and b = gamma + 2 (m-1)/alpha + 2.  Kummer's relation 1F1(a; b; -X) =
    etr(-X) 1F1(b - a; b; X) (Kaneko, SIAM J. Math. Anal. 1993) turns it
    into e^(-m x / 2) pref(x) sum_k c_k (x/2)^k, where c_k are the layer
    sums of 1F1(b - a; b; I_m).  As b - a = (m-1)/alpha + 1 > 0, every term
    is positive and nothing cancels.  As x/2 is dyadic, c_k (x/2)^k is a
    ratio of ints, whose logs ``math.log`` takes at any size, and the sum
    is kept as its log by log-add-exp, so terms and partial sums may lie
    far outside the float range.  The series stops once three terms in a
    row fall below tol times the sum.  DEGREE_CAP reaches x of about 290
    at m = 2; beyond it ConvergenceError carries the partial sum.
    """
    alpha = _numeric_alpha(alpha)
    gamma = as_exact(gamma, "gamma")
    if not (isinstance(gamma, Fraction) and gamma > -1):
        raise DomainError("gamma must be a number > -1, got %s" % rf(gamma).text())
    m = as_int(m, "m", 1)
    _check_tol(tol)
    if as_finite(x, "x") <= 0:
        return 0.0
    b_minus_a = Fraction(m - 1) / alpha + 1
    b = gamma + 2 * Fraction(m - 1) / alpha + 2
    log_pref = binom.log_mv_gamma(alpha, b_minus_a, m) - binom.log_mv_gamma(alpha, b, m)
    log_pref += float(m * (gamma + b_minus_a)) * math.log(x / 2.0) - m * x / 2.0
    num, den = (x / 2.0).as_integer_ratio()
    power_num = power_den = 1  # (x/2)^k = power_num / power_den
    log_total = -math.inf
    small_run = 0
    sums = _identity_sums(alpha, [b_minus_a], [b], m)
    for k, c_k in zip(range(DEGREE_CAP + 1), sums):
        log_layer = log_pref + math.log(c_k.numerator * power_num) - math.log(c_k.denominator * power_den)
        power_num, power_den = power_num * num, power_den * den
        log_total = max(log_total, log_layer) + math.log1p(math.exp(-abs(log_total - log_layer)))
        if log_layer <= math.log(tol) + log_total:
            small_run += 1
            if k > 2 and small_run >= 3:
                break
        else:
            small_run = 0
    else:
        raise ConvergenceError(
            "1F1 did not reach tolerance %g by degree %d" % (tol, DEGREE_CAP),
            partial=math.exp(log_total),
        )
    # the terms are positive; only rounding can carry the sum past 1
    return min(math.exp(log_total), 1.0)


# ---------------------------------------------------------------------------
# level density of the 2/alpha-Hermite ensemble


def level_density_polynomial(beta, n):
    """Exact even polynomial factor of the level density.

    Returns coefficients q[0..k] (odd slots zero) with
    rho(x) = exp(-x^2/2) / sqrt(2 pi) * sum_s q[s] x^s,
    normalized so the density has total mass 1 (one eigenvalue).
    """
    ints, d = _level_density_coeffs(as_int(beta, "beta", 2), as_int(n, "n", 1))
    return [Fraction(c, d) for c in ints]


@cache.memo
def _level_density_coeffs(beta, n):
    """(ints, d) of the polynomial; callers pass beta through as_int, so 2.0 is no key."""
    if beta % 2:
        raise DomainError("level density needs an even integer beta >= 2")
    k = beta * (n - 1)
    # the Hermite coefficients are v_sigma C_kappa(I_n)/C_sigma(I_n), so the
    # layer sums of c_sigma C_sigma(I_n) over C_kappa(I_n) are those of v_sigma
    sums = [0] * (k + 1)
    for sigma, v in orthopoly._hermite_values(Fraction(2, beta), (beta,) * (n - 1)).items():
        sums[partitions.weight(sigma)] += v
    scale = Fraction(math.factorial(beta // 2), math.factorial(n * beta // 2))
    ints, d = common_denominator([-scale * q if (k - s) // 2 % 2 else scale * q for s, q in enumerate(sums)])
    return tuple(ints), d


def level_density(beta, n, x):
    """Marginal density of one eigenvalue of the n x n ensemble at x."""
    curve = _level_density_coeffs(as_int(beta, "beta", 2), as_int(n, "n", 1))
    x = float(as_finite(x, "x"))
    return _weighted_value(curve, x, -x * x / 2) / math.sqrt(2.0 * math.pi)


def level_density_scaled(beta, n, x):
    """Density rescaled by sqrt(2 n beta), keeping the spectrum near [-1,1]."""
    beta, n = as_int(beta, "beta", 2), as_int(n, "n", 1)
    c = math.sqrt(2.0 * n * beta)
    cx = c * as_finite(x, "x")
    if math.isinf(cx):
        # the weight e^(-(cx)^2/2) lies far below the least subnormal
        return 0.0
    return c * level_density(beta, n, cx)


def level_density_scaled_polynomial(beta, n):
    """Exact coefficients of the scaled density's polynomial factor.

    The scaled density is sqrt(2 n beta) / sqrt(2 pi) *
    exp(-(n beta) x^2) * sum_t P[2t] x^(2t) with P[2t] =
    q[2t] * (2 n beta)^t; these come out as exact rationals (integers for
    the ensembles of interest).
    """
    coeffs = level_density_polynomial(beta, n)
    scale = 2 * n * beta
    return [coeffs[s] * Fraction(scale) ** (s // 2) if s % 2 == 0 else Fraction(0) for s in range(len(coeffs))]
