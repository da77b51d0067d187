"""Exact rational functions over a fixed, closed parameter set.

The field elements are ratios of sparse multivariate polynomials with
integer coefficients in the parameters a, n, g, g1, g2, r (a is the Jack
parameter, n the symbolic variable count, g / g1 / g2 the Laguerre and
Jacobi weight exponents, r an internal formal variable).  Polynomials are
dicts mapping packed exponents to nonzero ints.

A packed exponent is one int (Monagan & Pearce, "Polynomial division using
dynamic arrays, heaps, and packed exponent vectors", CASC 2007).  Each
parameter has a field of _WIDTH = 16 bits, a in the most significant and r
in the least, and the total degree has the field above them, so a monomial
product is one int addition and int order is graded lex order: total degree
first, then the exponent of a, of n, and so on.  The top bit of every field
is a guard bit that stays clear, so one subtraction tests every field for
divisibility.  A monomial's total degree is at most _DEG_MAX = 32767, and
a product or shift past it raises DomainError; a product checks this once,
from the total degrees of the two leading terms.

Every RationalFunction is canonical: gcd(num, den) is a unit and the
denominator's leading coefficient under graded lex order is positive.
Equality is therefore structural, and a constant hashes like the Fraction
it equals.

The polynomial gcd is the heuristic GCDHEU (Char, Geddes & Gonnet 1989):
evaluate one variable at a large integer, take the gcd of the images
recursively, rebuild a candidate from its digits and accept it when it
divides both inputs, which the evaluation bound makes sufficient.  The
quotients of those two trial divisions are the cofactors p/g and q/g, and
the gcd returns them with g.  With one variable free, as for values in
alpha alone and at the last level of every recursion, GCDHEU runs on
dense int coefficient lists: an image is one int by Horner's rule, its
gcd one int gcd, and the check a synthetic division.  When no candidate
divides, a primitive pseudo-remainder sequence (PRS) computes the gcd and
each input is divided by it once.  Sums and products are reduced by
Henrici's method (Knuth, TAOCP 2, 4.5.1), as `fractions.Fraction` does: a
product cancels each numerator against the other denominator first, and a
sum needs the gcd of the denominators and, when that is not 1, one more
gcd with the new numerator; every cancellation takes the cofactors.

Values in alpha alone whose denominators are products of factors linear
in alpha (hooks, box products, one-box binomial ratios, the binomial
table, the Hermite values, the C tables and the sweep out of them) take
no gcd at all: they are held in a factored form, ``Factored``, and
converted to the field once.  A value is an int ratio times an int
coefficient list in a formal X that stands for alpha, times a multiset
of primitive linear keys c0 + c1 X (c1 > 0) with signed exponents.  A
product merges the multisets.  A sum takes the lcm of its terms' keys,
adds the numerator lists once, and cancels each key below by synthetic
division while the sum vanishes at the key's root.  That test is a
complete cancellation: a primitive polynomial of degree 1 is
irreducible, so it divides the numerator exactly when the numerator
vanishes at its root, and otherwise shares no factor with it; two keys
are associates only when they are equal, so keys left above and below
share none either.  By Gauss's lemma the products of primitive lists
and keys are primitive, so once the keys are cancelled the one common
factor left is the int gcd of the two contents, and the denominator's
leading coefficient is its int content times the positive c1s: the sign
rule is that int's sign.  The conversion substitutes X := alpha once: at
alpha a bare parameter the lists are the polynomial; at alpha =
(A0 + A1 t) / d the list is Taylor-shifted and each key is an int times
a primitive key in t, distinct keys staying distinct, with one int
content gcd; any other symbolic alpha takes the field operations, once
per value.  ``linear_product`` is such a product converted at once.
"""

import re
from fractions import Fraction
from math import exp, floor, ldexp, lcm
from math import gcd as _int_gcd
from math import isfinite

from .errors import DomainError, PoleError

PARAMS = ("a", "n", "g", "g1", "g2", "r")
NPARAMS = len(PARAMS)
_PINDEX = {p: i for i, p in enumerate(PARAMS)}

# ---------------------------------------------------------------------------
# packed exponents (one int per monomial)

_WIDTH = 16
_DEG_MAX = (1 << (_WIDTH - 1)) - 1
_MASK = (1 << _WIDTH) - 1
_SHIFT = tuple(_WIDTH * (NPARAMS - 1 - v) for v in range(NPARAMS))
_TOTAL = _WIDTH * NPARAMS
# variable v to the first power: its own field and the total degree
_UNIT = tuple((1 << s) | (1 << _TOTAL) for s in _SHIFT)
_GUARD = sum(1 << (_WIDTH * k + _WIDTH - 1) for k in range(NPARAMS + 1))
# the field of variable v
_FIELD_MASK = tuple(_MASK << s for s in _SHIFT)
_ZEXP = 0


def _check_degree(total):
    if total > _DEG_MAX:
        raise DomainError("total degree %d is past the largest, %d" % (total, _DEG_MAX))


def _pack(exp):
    """The packed form of an exponent tuple in PARAMS order."""
    total = sum(exp)
    _check_degree(total)
    return (total << _TOTAL) + sum(e << s for e, s in zip(exp, _SHIFT))


def _unpack(e):
    return tuple((e >> s) & _MASK for s in _SHIFT)


def _field(e, v):
    """The exponent of variable v in the packed exponent e."""
    return (e >> _SHIFT[v]) & _MASK


# ---------------------------------------------------------------------------
# raw polynomial helpers (dict packed exponent -> nonzero int)


def _p_const(c):
    return {_ZEXP: c} if c else {}


_P_ONE = _p_const(1)


def _p_is_const(p):
    return not p or (len(p) == 1 and _ZEXP in p)


def _p_add(p, q):
    if not p:
        return dict(q)
    if not q:
        return dict(p)
    out = dict(p)
    for exp, c in q.items():
        s = out.get(exp, 0) + c
        if s:
            out[exp] = s
        else:
            out.pop(exp, None)
    return out


def _p_neg(p):
    return {exp: -c for exp, c in p.items()}


def _p_scale(p, c):
    if c == 0:
        return {}
    if c == 1:
        return dict(p)
    return {exp: c * v for exp, v in p.items()}


def _p_mul(p, q):
    if not p or not q:
        return {}
    if _p_is_const(p):
        return _p_scale(q, p[_ZEXP])
    if _p_is_const(q):
        return _p_scale(p, q[_ZEXP])
    _check_degree((max(p) >> _TOTAL) + (max(q) >> _TOTAL))
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            exp = e1 + e2
            s = out.get(exp, 0) + c1 * c2
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
    return out


def _p_lead_coeff(p):
    """Coefficient of the graded-lex greatest term."""
    return p[max(p)]


def _p_content(p):
    g = 0
    for c in p.values():
        g = _int_gcd(g, abs(c))
        if g == 1:
            return 1
    return g


def _p_divexact_int(p, c):
    if c == 1:
        return p
    return {exp: v // c for exp, v in p.items()}


def _p_divexact(p, d):
    """Exact polynomial division; raises if d does not divide p."""
    if not p:
        return {}
    if _p_is_const(d):
        c = d[_ZEXP]
        if c == 1:
            return p
        out = {}
        for exp, v in p.items():
            q, rem = divmod(v, c)
            if rem:
                raise ArithmeticError("inexact constant division")
            out[exp] = q
        return out
    lead = max(d)
    lead_c = d[lead]
    rest = dict(p)
    out = {}
    while rest:
        lt = max(rest)
        # a guard bit survives the subtraction where that field of lt >= lead
        if ((lt | _GUARD) - lead) & _GUARD != _GUARD:
            raise ArithmeticError("inexact polynomial division")
        exp_q = lt - lead
        cq, rem = divmod(rest[lt], lead_c)
        if rem:
            raise ArithmeticError("inexact polynomial division")
        out[exp_q] = cq
        for e2, c2 in d.items():
            exp = exp_q + e2
            s = rest.get(exp, 0) - cq * c2
            if s:
                rest[exp] = s
            else:
                rest.pop(exp, None)
    return out


def _p_active_vars(*polys):
    """The variables that occur in any of the polynomials."""
    bits = 0
    for p in polys:
        for exp in p:
            bits |= exp
    return {v for v, mask in enumerate(_FIELD_MASK) if bits & mask}


def _v_deg(p, v):
    return max((_field(exp, v) for exp in p), default=0)


def _v_decompose(p, v):
    """Map v-degree -> coefficient polynomial (with the v field zeroed)."""
    out = {}
    unit = _UNIT[v]
    for exp, c in p.items():
        d = _field(exp, v)
        out.setdefault(d, {})[exp - d * unit] = c
    return out


def _v_content(p, v):
    g = {}
    for coeff in _v_decompose(p, v).values():
        g = _p_gcd(g, coeff)
        if g == _P_ONE:
            break
    return g


def _v_shift(p, v, d):
    """p times variable v to the power d."""
    if p:
        _check_degree((max(p) >> _TOTAL) + d)
    shift = d * _UNIT[v]
    return {exp + shift: c for exp, c in p.items()}


def _pseudo_rem(A, B, v):
    """Pseudo-remainder of A by B in the variable v."""
    db = _v_deg(B, v)
    lead_B = _v_decompose(B, v)[db]
    R = A
    while R and _v_deg(R, v) >= db:
        dr = _v_deg(R, v)
        lead_R = _v_decompose(R, v)[dr]
        R = _p_add(_p_mul(lead_B, R), _p_neg(_p_mul(lead_R, _v_shift(B, v, dr - db))))
    return R


def _p_positive(p):
    if p and _p_lead_coeff(p) < 0:
        return _p_neg(p)
    return p


def _p_quotient(p, d):
    """Exact quotient p / d, or None when d does not divide p."""
    try:
        return _p_divexact(p, d)
    except ArithmeticError:
        return None


def _p_maxnorm(p):
    return max(abs(c) for c in p.values())


def _p_eval_var(p, v, xi):
    """Substitute the integer xi for variable v."""
    out = {}
    unit = _UNIT[v]
    for exp, c in p.items():
        e = _field(exp, v)
        key = exp - e * unit
        val = c * xi**e if e else c
        s = out.get(key, 0) + val
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def _balanced_digit(p, xi):
    """Balanced remainder of every coefficient mod xi; returns (digit, rest)."""
    digit = {}
    rest = {}
    half = xi // 2
    for exp, c in p.items():
        r = c % xi
        if r > half:
            r -= xi
        if r:
            digit[exp] = r
        q = (c - r) // xi
        if q:
            rest[exp] = q
    return digit, rest


def _int_lead_apart(p, q):
    """True when p has a variable w that q lacks, in which p's leading coefficient is an int.

    A common factor of p and q is then free of w, as it divides q, so it
    divides every coefficient of p in w, the int leading one too: the gcd
    of p and q is an int.  A box product prod (n + alpha (c-1) - (l-1))
    against a denominator in alpha alone is one such pair.
    """
    for w in _p_active_vars(p) - _p_active_vars(q):
        top = _v_deg(p, w)
        lead = [e for e in p if _field(e, w) == top]
        if len(lead) == 1 and lead[0] == top * _UNIT[w]:
            return True
    return False


def _heugcd(p, q):
    """(g, p/g, q/g) by integer evaluation; None when it gives up.

    The division check of the candidate g yields the cofactors p/g and
    q/g.  With at most one variable free, `_dense_heugcd` runs instead;
    with an int leading coefficient apart (`_int_lead_apart`), the gcd is
    the int gcd of the contents, with no evaluation.
    """
    active = _p_active_vars(p, q)
    if len(active) <= 1:
        return _dense_heugcd(p, q, _UNIT[min(active)] if active else 0)
    if _int_lead_apart(p, q) or _int_lead_apart(q, p):
        ig = _int_gcd(_p_content(p), _p_content(q))
        return _p_const(ig), _p_divexact_int(p, ig), _p_divexact_int(q, ig)
    v = min(active)
    xi = 2 * min(_p_maxnorm(p), _p_maxnorm(q)) + 29
    for _ in range(6):
        # xi grows about degree-fold per variable: inputs of degree 7 in
        # each of four parameters need some 7000 bits at the last one
        if xi.bit_length() > 40000:
            return None
        pe = _p_eval_var(p, v, xi)
        qe = _p_eval_var(q, v, xi)
        if not pe or not qe:
            xi = xi * 3 + 17
            continue
        # the images have one variable fewer, so the recursion ends
        image = _heugcd(pe, qe)
        if image is None:
            return None
        ge = image[0]
        # rebuild a candidate from balanced base-xi digits of ge
        cand = {}
        t = 0
        ok = True
        while ge:
            digit, ge = _balanced_digit(ge, xi)
            shift = t * _UNIT[v]
            for exp, c in digit.items():
                cand[exp + shift] = c
            t += 1
            if t > 400:
                ok = False
                break
        # a candidate past the degree cap divides neither input
        if ok and cand and max(cand) >> _TOTAL <= _DEG_MAX:
            cand = _p_positive(_p_divexact_int(cand, _p_content(cand)))
            # the division check that makes the candidate the gcd
            p_g = _p_quotient(p, cand)
            q_g = None if p_g is None else _p_quotient(q, cand)
            if q_g is not None:
                ig = _int_gcd(_p_content(p), _p_content(q))
                return _p_scale(cand, ig), _p_divexact_int(p_g, ig), _p_divexact_int(q_g, ig)
        xi = xi * 3 + 17
    return None


def _dense(p):
    """Coefficients, lowest degree first, of a polynomial in at most one variable."""
    out = [0] * ((max(p) >> _TOTAL) + 1)
    for exp, c in p.items():
        out[exp >> _TOTAL] = c
    return out


def _sparse(coeffs, unit):
    """The polynomial of a coefficient list; unit is the variable's `_UNIT`."""
    return {d * unit: c for d, c in enumerate(coeffs) if c}


def _dense_quotient(a, b):
    """a / b by synthetic division of coefficient lists, or None when b does
    not divide a."""
    db = len(b) - 1
    lead = b[-1]
    rest = list(a)
    out = [0] * (len(a) - db)
    for i in range(len(out) - 1, -1, -1):
        c, rem = divmod(rest[i + db], lead)
        if rem:
            return None
        if c:
            out[i] = c
            for j in range(db):
                rest[i + j] -= c * b[j]
    if not out or any(rest[:db]):
        return None
    return out


def _dense_heugcd(p, q, unit):
    """`_heugcd` of polynomials in at most one variable, on coefficient lists.

    Each image is an int, by Horner's rule, and its gcd is one int gcd.
    The same evaluation points, digit count and bit limit as the sparse
    recursion apply.
    """
    a, b = _dense(p), _dense(q)
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 29
    for _ in range(6):
        if xi.bit_length() > 40000:
            return None
        pe = qe = 0
        for c in reversed(a):
            pe = pe * xi + c
        for c in reversed(b):
            qe = qe * xi + c
        if not pe or not qe:
            xi = xi * 3 + 17
            continue
        ge = _int_gcd(pe, qe)
        # balanced base-xi digits of ge, lowest first
        half = xi // 2
        cand = []
        while ge and len(cand) < 400:
            digit = ge % xi
            if digit > half:
                digit -= xi
            cand.append(digit)
            ge = (ge - digit) // xi
        if not ge:
            ig = _int_gcd(*a, *b)
            if len(cand) == 1:  # the primitive gcd is 1
                return _p_const(ig), _p_divexact_int(p, ig), _p_divexact_int(q, ig)
            # the top digit of a positive ge is positive
            content = _int_gcd(*cand)
            cand = [c // content for c in cand]
            # the division check that makes the candidate the gcd
            a_g = _dense_quotient(a, cand)
            b_g = None if a_g is None else _dense_quotient(b, cand)
            if b_g is not None:
                return (
                    _sparse([c * ig for c in cand], unit),
                    _sparse([c // ig for c in a_g], unit),
                    _sparse([c // ig for c in b_g], unit),
                )
        xi = xi * 3 + 17
    return None


def _prs_gcd(p, q):
    """Polynomial gcd by the primitive pseudo-remainder sequence.

    The fallback of `_p_cofactors` when `_heugcd` gives up, for nonzero,
    non-constant operands, in the main variable only: the content gcds, in
    one variable fewer, go through `_p_gcd` and try `_heugcd` first.
    `test_gcd_matches_sympy` is the independent oracle of both.
    """
    v = min(_p_active_vars(p, q))
    cp = _v_content(p, v)
    cq = _v_content(q, v)
    gcont = _p_gcd(cp, cq)
    A = _p_divexact(p, cp)
    B = _p_divexact(q, cq)
    if _v_deg(A, v) < _v_deg(B, v):
        A, B = B, A
    while B:
        R = _pseudo_rem(A, B, v)
        if R:
            R = _p_divexact(R, _v_content(R, v))
        A, B = B, R
    A = _p_divexact(A, _p_const(_p_content(A)))
    return _p_positive(_p_mul(gcont, A))


def _p_gcd(p, q):
    """Polynomial gcd over Z, positive leading coefficient, content included."""
    return _p_cofactors(p, q)[0]


def _p_cofactors(p, q):
    """(g, p/g, q/g): g the polynomial gcd over Z, positive leading coefficient, content included.

    `_heugcd` (GCDHEU, Char, Geddes & Gonnet, J. Symbolic Comput. 7, 1989)
    substitutes an integer xi >= 2*min(|p|, |q|) + 29 (|.| the largest
    absolute coefficient) for one variable, takes the gcd of the images
    recursively and rebuilds a candidate from its balanced base-xi digits.
    For xi >= 2*min(|p|, |q|) + 2 the primitive candidate is the primitive
    gcd as soon as it divides both p and q, so the two trial divisions are
    the whole verification, and their quotients are the cofactors.  When
    no candidate divides, `_prs_gcd` runs and each operand is divided by
    its gcd once.  A unit, zero, constant or equal operand is answered
    here, before either: every `_prs_gcd` call is a real PRS.
    """
    if p == _P_ONE or q == _P_ONE:
        return _P_ONE, p, q
    if not p or not q or p == q:
        # gcd(0, h), gcd(h, 0) and gcd(h, h) are h up to sign
        h = q or p
        g = _p_positive(h)
        unit = _p_const(1 if g is h else -1)
        return g, unit if p else p, unit if q else q
    if _p_is_const(p) or _p_is_const(q):
        ig = _int_gcd(_p_content(p), _p_content(q))
        return _p_const(ig), _p_divexact_int(p, ig), _p_divexact_int(q, ig)
    heur = _heugcd(p, q)
    if heur is not None:
        return heur
    g = _prs_gcd(p, q)
    if g == _P_ONE:
        return g, p, q
    return g, _p_divexact(p, g), _p_divexact(q, g)


def _p_substitute(p, vals):
    """Partial evaluation; vals maps var index -> Fraction.

    Returns a dict packed exponent -> Fraction (zeros dropped).
    """
    out = {}
    for exp, c in p.items():
        factor = Fraction(c)
        nexp = exp
        for i, val in vals.items():
            e = _field(exp, i)
            if e:
                factor *= val**e
                nexp -= e * _UNIT[i]
        s = out.get(nexp, 0) + factor
        if s:
            out[nexp] = s
        else:
            out.pop(nexp, None)
    return out


# term order used for display: ascending total degree, then parameters in
# declaration order (a before n before g ...), which within one total degree
# is descending int order


def _display_key(exp):
    return (exp >> _TOTAL, -exp)


def _monomial_text(exp, coeff):
    parts = []
    for i, e in enumerate(_unpack(exp)):
        if e == 1:
            parts.append(PARAMS[i])
        elif e > 1:
            parts.append("%s^%d" % (PARAMS[i], e))
    if not parts:
        return str(coeff)
    if coeff == 1:
        return "*".join(parts)
    if coeff == -1:
        return "-" + "*".join(parts)
    return str(coeff) + "*" + "*".join(parts)


def poly_text(p):
    if not p:
        return "0"
    chunks = []
    for exp in sorted(p, key=_display_key):
        text = _monomial_text(exp, p[exp])
        if not chunks:
            chunks.append(text)
        elif text.startswith("-"):
            chunks.append("-" + text[1:])
        else:
            chunks.append("+" + text)
    return "".join(chunks)


class Infinity:
    """Signed infinity marker returned by limit_at_infinity."""

    __slots__ = ("sign",)

    def __init__(self, sign):
        self.sign = sign  # +1, -1 or None when the sign is parameter-dependent

    def __repr__(self):
        return {1: "+infinity", -1: "-infinity", None: "infinity"}[self.sign]

    def __eq__(self, other):
        return isinstance(other, Infinity) and self.sign == other.sign

    def __hash__(self):
        return hash(("Infinity", self.sign))


class RationalFunction:
    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den, _canonical=False):
        if not _canonical:
            num, den = _canonicalize(num, den)
        self.num = num
        self.den = den
        self._hash = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_int(c):
        return RationalFunction(_p_const(c), _P_ONE, _canonical=True)

    @staticmethod
    def from_fraction(fr):
        fr = Fraction(fr)
        return RationalFunction(
            _p_const(fr.numerator), _p_const(fr.denominator), _canonical=True
        )

    # -- predicates ---------------------------------------------------

    @property
    def is_constant(self):
        return _p_is_const(self.num) and _p_is_const(self.den)

    def to_fraction(self):
        if not self.is_constant:
            raise DomainError("not a constant: %s" % self)
        if not self.num:
            return Fraction(0)
        return Fraction(self.num[_ZEXP], self.den[_ZEXP])

    def free_parameters(self):
        """Names of parameters that actually occur."""
        active = _p_active_vars(self.num, self.den)
        return tuple(PARAMS[i] for i in sorted(active))

    def __bool__(self):
        return bool(self.num)

    # -- arithmetic ---------------------------------------------------

    # Sums and products are reduced by Henrici's method (Knuth, TAOCP 2,
    # 4.5.1): only the factors the canonical operands can share are
    # cancelled, and the result is canonical without a gcd of its whole
    # numerator and denominator.  Its denominator is a product of exact
    # quotients of positive-leading denominators by positive-leading gcds,
    # and leading coefficients multiply under graded lex, so the sign rule
    # holds without a check.

    def __add__(self, other):
        other = rf(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            return self
        if not self.num:
            return other
        d1, d2 = self.den, other.den
        g, d1g, d2g = _p_cofactors(d1, d2)
        num = _p_add(_p_mul(self.num, d2g), _p_mul(other.num, d1g))
        if not num:
            return ZERO
        if g == _P_ONE:
            return RationalFunction(num, _p_mul(d1, d2), _canonical=True)
        # only the gcd e of the new numerator with g is left to cancel:
        # the denominator d1 d2 / (g e) is d1g d2g (g/e)
        _, num_e, g_e = _p_cofactors(num, g)
        return RationalFunction(num_e, _p_mul(d1g, _p_mul(d2g, g_e)), _canonical=True)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(_p_neg(self.num), self.den, _canonical=True)

    def __sub__(self, other):
        other = rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if other.__class__ is int and other == 1:
            return self  # the unit denominator of a ``linear_product`` pair
        other = rf(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num or not other.num:
            return ZERO
        _, n1, d2 = _p_cofactors(self.num, other.den)
        _, n2, d1 = _p_cofactors(other.num, self.den)
        return RationalFunction(_p_mul(n1, n2), _p_mul(d1, d2), _canonical=True)

    __rmul__ = __mul__

    def inverse(self):
        if not self.num:
            raise DomainError("division by the zero rational function")
        # num and den are already coprime
        num, den = _sign_rule(self.den, self.num)
        return RationalFunction(num, den, _canonical=True)

    def __truediv__(self, other):
        other = rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self.__mul__(other.inverse())

    def __rtruediv__(self, other):
        return self.inverse().__mul__(other)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        result = ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- comparison ---------------------------------------------------

    def __eq__(self, other):
        other = rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a constant equals its Fraction, so it must hash like it too
        if self._hash is None:
            if self.is_constant:
                self._hash = hash(self.to_fraction())
            else:
                self._hash = hash(
                    (tuple(sorted(self.num.items())), tuple(sorted(self.den.items())))
                )
        return self._hash

    def __repr__(self):
        return "RationalFunction(%s)" % self.text()

    # -- evaluation ---------------------------------------------------

    def substitute(self, bindings):
        """Partially evaluate at rational parameter values.

        ``bindings`` maps parameter names to ints or Fractions.  Raises
        PoleError when the denominator vanishes at the point.
        """
        vals = {}
        for name, value in bindings.items():
            if name not in _PINDEX:
                raise DomainError("unknown parameter %r" % name)
            vals[_PINDEX[name]] = Fraction(value)
        if not vals:
            return self
        den_f = _p_substitute(self.den, vals)
        if not den_f:
            point = ", ".join(
                "%s=%s" % (name, bindings[name]) for name in sorted(bindings)
            )
            raise PoleError("pole at %s" % point)
        num_f = _p_substitute(self.num, vals)
        # numerator and denominator over one common denominator, which cancels
        ints, _ = common_denominator([*num_f.values(), *den_f.values()])
        return RationalFunction(dict(zip(num_f, ints)), dict(zip(den_f, ints[len(num_f) :])))

    def __call__(self, **bindings):
        return self.substitute(bindings)

    # -- structure ----------------------------------------------------

    def series_coefficients(self, param, degree):
        """Taylor coefficients in ``param`` at 0, orders 0..degree."""
        if param not in _PINDEX:
            raise DomainError("unknown parameter %r" % param)
        v = _PINDEX[param]
        num_by = _v_decompose(self.num, v) if self.num else {}
        den_by = _v_decompose(self.den, v)
        den0 = den_by.get(0)
        if not den0:
            raise PoleError("denominator vanishes identically at %s=0" % param)
        den0_rf = RationalFunction(den0, _P_ONE)
        coeffs = []
        for j in range(degree + 1):
            acc = RationalFunction(num_by.get(j, {}), _P_ONE)
            for i in range(1, j + 1):
                di = den_by.get(i)
                if di:
                    acc = acc - RationalFunction(di, _P_ONE) * coeffs[j - i]
            coeffs.append(acc / den0_rf)
        return coeffs

    def limit_at_infinity(self, param):
        """Limit as ``param`` -> +infinity: a RationalFunction or Infinity."""
        if param not in _PINDEX:
            raise DomainError("unknown parameter %r" % param)
        if not self.num:
            return ZERO
        v = _PINDEX[param]
        dn = _v_deg(self.num, v)
        dd = _v_deg(self.den, v)
        if dn < dd:
            return ZERO
        ratio = RationalFunction(_v_decompose(self.num, v)[dn], _v_decompose(self.den, v)[dd])
        if dn == dd:
            return ratio
        if ratio.is_constant:
            return Infinity(1 if ratio.to_fraction() > 0 else -1)
        return Infinity(None)

    # -- rendering ----------------------------------------------------

    def text(self):
        num = poly_text(self.num)
        if self.den == _P_ONE:
            return num
        if len(self.num) > 1:
            num = "(%s)" % num
        return "%s/(%s)" % (num, poly_text(self.den))

    def factor_text(self):
        """Text form safe to splice into a product with '*'."""
        if self.den == _P_ONE and len(self.num) > 1:
            return "(%s)" % poly_text(self.num)
        return self.text()

    def to_json(self):
        return {"num": poly_text(self.num), "den": poly_text(self.den)}


def _canonicalize(num, den):
    if not den:
        raise DomainError("zero denominator")
    if not num:
        return {}, dict(_P_ONE)
    _, num, den = _p_cofactors(num, den)
    return _sign_rule(num, den)


def _sign_rule(num, den):
    """Make the denominator's graded-lex leading coefficient positive."""
    if _p_lead_coeff(den) < 0:
        return _p_neg(num), _p_neg(den)
    return num, den


def as_exact(x, name="a scalar"):
    """The one way a scalar enters the field.

    An int or a Fraction becomes a Fraction, and so does a constant
    RationalFunction, so one value is one Fraction however it is written.
    A RationalFunction with a free parameter is returned unchanged.  Any
    other value (a float, a bool, a str, None) raises DomainError naming
    ``name``: no inexact number reaches exact arithmetic.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, RationalFunction):
        return x.to_fraction() if x.is_constant else x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise DomainError(
        "%s must be a rational number or a rational function, got %r" % (name, x)
    )


_DECIMAL = re.compile(r"\s*-?[0-9]+\s*", re.ASCII)


def read_int(text, name):
    """The int that a decimal numeral writes: an optional minus sign, ASCII digits.

    The one reader of integers from text.  ``int()`` would also read "1_0"
    as 10, "+3", and the digits of other scripts, and a superscript "2"
    passes ``str.isdigit`` but not ``int``; each raises DomainError naming
    ``name``.  Spaces around the numeral are allowed.  The range is left to
    the caller's own check, such as ``as_int``.
    """
    if not (isinstance(text, str) and _DECIMAL.fullmatch(text)):
        raise DomainError("%s must be a decimal integer, got %r" % (name, text))
    return int(text)


_REAL = re.compile(r"\s*(-?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?|-?inf|nan)\s*", re.ASCII)


def read_real(text, name):
    """The float that a decimal numeral writes: ASCII digits with an optional
    minus sign, fraction and exponent, or ``repr``'s inf, -inf and nan.

    The one reader of reals from text, beside ``read_int``.  ``float()``
    would also read "1_0" as 10, "+3", "Infinity" and the digits of other
    scripts; each raises DomainError naming ``name``.  Spaces around the
    numeral are allowed.  A NaN or an infinity is left to the caller's
    range check, such as ``as_finite``.
    """
    if not (isinstance(text, str) and _REAL.fullmatch(text)):
        raise DomainError("%s must be a decimal number, got %r" % (name, text))
    return float(text)


def as_int(x, name, least=0):
    """x itself when it is an int >= least: a count, a degree or a part.

    Anything else, a bool, a float or a str included, raises DomainError
    naming ``name``, where ``int()`` would truncate 2.5 and read "3".
    """
    if isinstance(x, int) and not isinstance(x, bool) and x >= least:
        return x
    raise DomainError("%s must be an integer >= %d, got %r" % (name, least, x))


def as_finite(x, name):
    """x itself when it is an int, a Fraction or a finite float: a real point.

    Anything else raises DomainError naming ``name``.  A NaN fails every
    comparison, so it would pass a domain test and come out as a "nan"
    result or a crash further on; a str or a bool would pass ``float()``
    as the number it spells.
    """
    if isinstance(x, float):
        if isfinite(x):
            return x
    elif isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return x
    raise DomainError("%s must be a finite number, got %r" % (name, x))


# fdlibm's split of ln 2: j * _LN2_HI is exact for |j| < 2^21
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10


def to_float(value, log_weight=0.0):
    """value * e^log_weight as a float: the one place an exact number is rounded.

    value is an int, a Fraction or a pair (n, d) of ints, d > 0, in any
    terms.  The mantissa n / (d 2^e) in [1/2, 2) is one correctly rounded
    int division and 2^e goes back by ``ldexp``, so neither the value nor
    e^log_weight need lie in the float range: a weight beyond +-700 settles
    under- and overflow by the exponent, then folds into 2^e (exactly while
    the fold is below 2^21).  Underflow gives 0.0; past the range, DomainError.
    """
    n, d = value if isinstance(value, tuple) else (value.numerator, value.denominator)
    e = n.bit_length() - d.bit_length()
    mantissa = n / (d << e) if e >= 0 else (n << -e) / d
    try:
        if abs(log_weight) > 700:
            twos = log_weight / (_LN2_HI + _LN2_LO)
            if not n or e + twos < -1080:  # below half the least subnormal
                return 0.0
            if e + twos > 1030:
                raise OverflowError
            twos = floor(twos)
            e += twos
            log_weight = (log_weight - twos * _LN2_HI) - twos * _LN2_LO
        return ldexp(mantissa * exp(log_weight), e)
    except OverflowError:
        raise DomainError("the value at this point is beyond the float range") from None


def common_denominator(values):
    """(nums, d): the values as numerators over their least common int denominator.

    Fractions (or ints) give int numerators.  A field element is its own
    numerator over 1, so the numerators' sum divided once by d is the sum
    of the values either way.
    """
    pairs = [homogeneous(v) for v in values]
    d = lcm(*(den for _, den in pairs))
    return [num * (d // den) for num, den in pairs], d


def homogeneous(x):
    """(P, Q) with x = P / Q, for products of factors linear in x.

    A Fraction gives its numerator and denominator and a float its exact
    dyadic ratio, so u + v x = (Q u + P v) / Q is an int over Q and a
    product of such factors is formed in ints; an int or a RationalFunction
    gives (x, 1), and the same expressions are its own field operations.
    """
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    if isinstance(x, float):
        return x.as_integer_ratio()
    return x, 1


def ratio(num, den):
    """num / den without a float: a Fraction when both are ints.

    Otherwise it is the quotient in the field of num or den, and a den of
    int 1 leaves num as it is.
    """
    if isinstance(num, int) and isinstance(den, int):
        return Fraction(num, den)
    if isinstance(den, int) and den == 1:
        return num
    return num / den


def rf(x):
    """Coerce ints, Fractions and RationalFunctions into the field."""
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, int):
        return RationalFunction.from_int(x)
    if isinstance(x, Fraction):
        return RationalFunction.from_fraction(x)
    return NotImplemented


_UNITS = frozenset(_UNIT)


def _linear_form(x):
    """(A0, A1, d, unit) with x = (A0 + A1 t) / d, or None for another x.

    t is one parameter, ``unit`` its `_UNIT`, A1 != 0 and d > 0 ints.
    """
    num, den = x.num, x.den
    lead = max(num, default=_ZEXP)
    if lead not in _UNITS or len(num) > 2 or not _p_is_const(den) or (len(num) == 2 and _ZEXP not in num):
        return None
    return num.get(_ZEXP, 0), num[lead], den[_ZEXP], lead


# Int lists are multiplied by Kronecker substitution: a list is its value
# at t = 2^bits, one int, and a product's coefficients are the balanced
# base-2^bits digits of the product of the values, exactly when bits - 1
# exceeds every coefficient's bit length.  A linear factor c0 + c1 t is
# then one int, so a product of many costs a few int products, not a
# pass over the list per factor.


def _at_power_of_two(coeffs, bits):
    """sum_i coeffs[i] 2^(bits i): the list's value at t = 2^bits."""
    value = 0
    for c in reversed(coeffs):
        value = (value << bits) + c
    return value


def _digits(value, bits, count):
    """The count balanced base-2^bits digits of value, lowest first."""
    full = 1 << bits
    half, mask = full >> 1, full - 1
    out = []
    for _ in range(count):
        digit = value & mask
        if digit >= half:
            digit -= full
        out.append(digit)
        value = (value - digit) >> bits
    return out


def _times_keys(coeffs, factors):
    """The int list times prod (c0 + c1 t)^e over factors ((c0, c1), e), e > 0.

    |coefficient| of the product < sum |coeffs| * prod (|c0| + |c1|)^e,
    which fixes bits.
    """
    if not factors:
        return list(coeffs)
    bits = sum(map(abs, coeffs)).bit_length() + 1
    length = len(coeffs)
    for (c0, c1), e in factors:
        bits += e * (abs(c0) + abs(c1)).bit_length()
        length += e
    value = _at_power_of_two(coeffs, bits)
    for (c0, c1), e in factors:
        value *= ((c1 << bits) + c0) ** e
    return _digits(value, bits, length)


def _divide_key(coeffs, c0, c1):
    """coeffs / (c0 + c1 t) by synthetic division from the top, or None when
    c0 + c1 t, c1 > 0, does not divide the int list exactly."""
    top = len(coeffs) - 1
    out = [0] * top
    carry = coeffs[top]
    for i in range(top - 1, -1, -1):
        if c1 == 1:
            q = carry
        else:
            q, rem = divmod(carry, c1)
            if rem:
                return None
        out[i] = q
        carry = coeffs[i] - q * c0
    return None if carry else out


_ONE_POLY = (1,)


class Factored:
    """A value in alpha alone, factored: (num / den) * poly(X) * prod key(X)^e.

    X stands for alpha.  num and den > 0 are ints, poly an int coefficient
    list (lowest degree first; the tuple (1,) when there is none) and keys
    a dict from a primitive linear key (c0, c1), c1 > 0, meaning c0 + c1 X,
    to a nonzero exponent.  Nothing here depends on alpha, which is kept
    for the one conversion, ``to_field``.

    A product merges the key multisets; a key above and below cancels.  A
    sum is held as its terms until it is stored, divided, tested or
    converted (``settled``): then the keys' lcm takes the place of the
    denominators, the numerator lists are added, and each key below is
    cancelled by synthetic division while the sum vanishes at its root,
    once per sum.  A product by a held sum distributes over its terms.
    A quotient by a value whose poly is 1 (a number or keys alone) stays
    factored; by any other value it is taken in the field.  An int, a
    Fraction or a constant RationalFunction enters as a number; any other
    field value takes this one to the field.
    """

    __slots__ = ("alpha", "num", "den", "poly", "keys", "terms", "low")

    def __init__(self, alpha, num, den, poly, keys, terms=None):
        self.alpha = alpha
        self.num = num
        self.den = den
        self.poly = poly
        self.keys = keys
        self.terms = terms
        # True once the value is known to be in lowest terms (``lowest``)
        self.low = False

    # -- the held sum -------------------------------------------------

    def settled(self):
        """self, with a held sum added up in place."""
        terms = self.terms
        if terms is None:
            return self
        terms = [t for t in terms if t.num]
        self.terms = None
        if len(terms) <= 1:
            t = terms[0] if terms else _zero(self.alpha)
            self.num, self.den, self.poly, self.keys, self.low = t.num, t.den, t.poly, t.keys, t.low
            return self
        # each key to its least exponent over the terms, 0 where a term lacks it
        least, seen = {}, {}
        for t in terms:
            for key, e in t.keys.items():
                if key in least:
                    seen[key] += 1
                    if e < least[key]:
                        least[key] = e
                else:
                    least[key], seen[key] = e, 1
        for key, count in seen.items():
            if count < len(terms) and least[key] > 0:
                least[key] = 0
        den = lcm(*(t.den for t in terms))
        # each term's list times its keys past the least, at t = 2^bits: the
        # sum is one int, and its digits are the summed list
        parts, bits, length = [], 0, 0
        for t in terms:
            scale = t.num * (den // t.den)
            rests = [(key, t.keys.get(key, 0) - e) for key, e in least.items()]
            rests = [(key, r) for key, r in rests if r]
            size = (abs(scale) * sum(map(abs, t.poly))).bit_length()
            count = len(t.poly)
            for (c0, c1), r in rests:
                size += r * (abs(c0) + c1).bit_length()
                count += r
            bits, length = max(bits, size), max(length, count)
            parts.append((scale, t.poly, rests))
        bits += len(terms).bit_length() + 1
        value = 0
        for scale, poly, rests in parts:
            part = scale * _at_power_of_two(poly, bits)
            for (c0, c1), r in rests:
                part *= ((c1 << bits) + c0) ** r
            value += part
        total = _digits(value, bits, length)
        while total and not total[-1]:
            total.pop()
        if not total:
            self.num, self.den, self.poly, self.keys = 0, 1, _ONE_POLY, {}
            return self
        self.num, self.den, self.poly, self.keys = _lowest(total, 1, den, least)
        self.low = True
        return self

    def lowest(self):
        """self with each key below that divides poly cancelled and num / den
        in lowest terms: the canonical form's parts."""
        s = self.settled()
        if not s.low:
            if s.num and (s.den != 1 or any(e < 0 for e in s.keys.values())):
                s = Factored(s.alpha, *_lowest(s.poly, s.num, s.den, s.keys))
            s.low = True
        return s

    def __bool__(self):
        return bool(self.settled().num)

    # -- arithmetic ---------------------------------------------------

    def _number(self, x):
        """x as a Factored, or None for a field value with a parameter."""
        if x.__class__ is Factored:
            return x
        if isinstance(x, RationalFunction):
            if not x.is_constant:
                return None
            x = x.to_fraction()
        if isinstance(x, int):
            return Factored(self.alpha, x, 1, _ONE_POLY, {})
        return Factored(self.alpha, x.numerator, x.denominator, _ONE_POLY, {})

    def __mul__(self, other):
        if other.__class__ is int and other == 1:
            return self
        o = self._number(other)
        if o is None:
            return self.to_field() * other
        if self.terms is not None:
            if o.terms is not None:
                o = o.settled()
            return _held(self.alpha, [_product(t, o) for t in self.terms])
        if o.terms is not None:
            return _held(self.alpha, [_product(self, t) for t in o.terms])
        return _product(self, o)

    __rmul__ = __mul__

    def __neg__(self):
        if self.terms is not None:
            return _held(self.alpha, [-t for t in self.terms])
        return Factored(self.alpha, -self.num, self.den, self.poly, self.keys)

    def __add__(self, other):
        if other.__class__ is int and not other:
            return self
        o = self._number(other)
        if o is None:
            return self.to_field() + other
        return _held(self.alpha, (self.terms or [self]) + (o.terms or [o]))

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def _inverse(self):
        """1 / self, for a settled nonzero value whose poly is 1."""
        if not self.num:
            raise DomainError("division by the zero rational function")
        num, den = (self.den, self.num) if self.num > 0 else (-self.den, -self.num)
        return Factored(self.alpha, num, den, _ONE_POLY, {key: -e for key, e in self.keys.items()})

    def __truediv__(self, other):
        o = self._number(other)
        if o is not None:
            o = o.settled()
            if len(o.poly) == 1:
                return _product(self.settled(), o._inverse())
        return self.to_field() / (other.to_field() if o is not None else other)

    def __rtruediv__(self, other):
        s = self.settled()
        o = s._number(other)
        if o is None or len(s.poly) > 1:
            return other / s.to_field()
        return _product(o, s._inverse())

    # -- the one conversion -------------------------------------------

    def to_field(self):
        """The canonical RationalFunction: X := alpha, once.

        A key below that divides poly is cancelled first, by its root, so
        the keys below share no factor with the numerator.  At alpha = a
        bare parameter the lists are the polynomial; at alpha =
        (A0 + A1 t) / d poly is shifted once and each key is a primitive
        key in t times an int, so in both cases the value is built on
        dense int lists with no gcd (see the module docstring).  Any
        other symbolic alpha takes the field operations, once.
        """
        s = self.lowest()
        if not s.num:
            return ZERO
        num, den, poly, keys = s.num, s.den, s.poly, s.keys
        form = _linear_form(self.alpha)
        if form is None:
            value = ZERO
            for c in reversed(poly):
                value = value * self.alpha + c
            above, below = rf(Fraction(num, den)) * value, ONE
            for (c0, c1), e in keys.items():
                factor = c0 + self.alpha * c1
                if e > 0:
                    above = above * factor**e
                else:
                    below = below * factor**-e
            return above / below
        a0, a1, d, unit = form
        if (a0, a1, d) != (0, 1, 1):
            # X = (A0 + A1 t) / d: poly(X) = sum_i poly_i (A0 + A1 t)^i d^(D-i) / d^D,
            # by Horner's rule at t = 2^bits
            degree = len(poly) - 1
            den *= d**degree
            bits = sum(map(abs, poly)).bit_length() + degree * max(abs(a0) + abs(a1), d).bit_length() + 1
            at_t = (a1 << bits) + a0
            value, scale = 0, 1
            for c in reversed(poly):
                value = value * at_t + c * scale
                scale *= d
            shifted, moved = _digits(value, bits, len(poly)), {}
            for (c0, c1), e in keys.items():
                # c0 + c1 X = (g / d) (u + v t), u + v t primitive, v > 0
                u, v = c0 * d + c1 * a0, c1 * a1
                g = _int_gcd(u, v) if v > 0 else -_int_gcd(u, v)
                moved[u // g, v // g] = e
                if e > 0:
                    num *= g**e
                    den *= d**e
                else:
                    num *= d**-e
                    den *= g**-e
            num, den, poly, keys = _primitive(shifted, num, den, moved)
        above = _times_keys([num * c for c in poly], [(key, e) for key, e in keys.items() if e > 0])
        below = _times_keys([den], [(key, -e) for key, e in keys.items() if e < 0])
        _check_degree(max(len(above), len(below)) - 1)
        return RationalFunction(
            _sparse(above, unit), _P_ONE if below == [1] else _sparse(below, unit), _canonical=True
        )


def _zero(alpha):
    return Factored(alpha, 0, 1, _ONE_POLY, {})


def _held(alpha, terms):
    return Factored(alpha, 0, 1, _ONE_POLY, {}, terms)


# an int point far from every key's root: a key that divides the list
# divides its value there
_XI = 1 << 64


def _lowest(coeffs, num, den, keys):
    """``_primitive`` of coeffs after each key below that divides it is cancelled.

    A linear key divides coeffs iff coeffs vanishes at its root, which one
    synthetic division tests.  A key whose value at _XI does not divide the
    list's value there cannot divide the list, so one int remainder turns
    most keys away before a division.
    """
    out = {}
    at_xi = None
    for key, e in keys.items():
        while e < 0 and len(coeffs) > 1:
            if at_xi is None:
                at_xi = 0
                for c in reversed(coeffs):
                    at_xi = at_xi * _XI + c
            c0, c1 = key
            if at_xi % (c0 + c1 * _XI):
                break
            quotient = _divide_key(coeffs, c0, c1)
            if quotient is None:
                break
            coeffs, e = quotient, e + 1
            at_xi //= c0 + c1 * _XI
        if e:
            out[key] = e
    return _primitive(coeffs, num, den, out)


def _primitive(coeffs, num, den, keys):
    """(num, den, poly, keys) with poly's int content moved into num / den, in lowest terms.

    A list of degree 1 becomes one more key.
    """
    content = _int_gcd(*coeffs)
    if coeffs[-1] < 0:
        content = -content
    num *= content
    if len(coeffs) == 1:
        poly = _ONE_POLY
    elif len(coeffs) == 2:
        keys = dict(keys)
        key = coeffs[0] // content, coeffs[1] // content
        e = keys.get(key, 0) + 1
        if e:
            keys[key] = e
        else:
            del keys[key]
        poly = _ONE_POLY
    else:
        poly = [c // content for c in coeffs] if content != 1 else coeffs
    g = _int_gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g, poly, keys


def _product(x, y):
    """x * y for two Factored values that hold no sum."""
    if not x.num or not y.num:
        return _zero(x.alpha)
    keys = x.keys
    if y.keys:
        if keys:
            keys = dict(keys)
            for key, e in y.keys.items():
                e += keys.get(key, 0)
                if e:
                    keys[key] = e
                else:
                    del keys[key]
        else:
            keys = y.keys
    if len(y.poly) == 1:
        poly = x.poly
    elif len(x.poly) == 1:
        poly = y.poly
    else:
        poly = [0] * (len(x.poly) + len(y.poly) - 1)
        for i, a in enumerate(x.poly):
            for j, b in enumerate(y.poly):
                poly[i + j] += a * b
    return Factored(x.alpha, x.num * y.num, x.den * y.den, poly, keys)


def factored(alpha, num_pairs=(), den_pairs=(), scale=1, poly=_ONE_POLY):
    """scale * poly(alpha) * prod (u + alpha v) / prod (u + alpha v) as a Factored.

    The pairs are ints (u, v); a factor with v = 0 is the int u, any other
    is g (c0 + c1 X) with (c0, c1) primitive and c1 > 0.  A zero factor
    below raises DomainError.  poly is an int list in alpha, kept as it is.
    """
    num, den = (scale, 1) if scale.__class__ is int else (scale.numerator, scale.denominator)
    while len(poly) > 1 and not poly[-1]:
        poly = poly[:-1]
    if len(poly) == 1:
        num *= poly[0]
        poly = _ONE_POLY
    keys = {}
    for step, pairs in ((1, num_pairs), (-1, den_pairs)):
        for u, v in pairs:
            if v:
                g = _int_gcd(u, v) if v > 0 else -_int_gcd(u, v)
                key = u // g, v // g
                keys[key] = keys.get(key, 0) + step
            else:
                g = u
            if step > 0:
                num *= g
            else:
                den *= g
    if not den:
        raise DomainError("division by the zero rational function")
    if den < 0:
        num, den = -num, -den
    if not num:
        return _zero(alpha)
    return Factored(alpha, num, den, poly, {key: e for key, e in keys.items() if e})


def settled(x):
    """A held sum of Factored terms added up (``Factored.settled``); anything else as it is."""
    return x.settled() if x.__class__ is Factored else x


def field_value(x):
    """x in its field: a Factored converted once (``Factored.to_field``), anything else as it is."""
    return x.to_field() if x.__class__ is Factored else x


def linear_product(alpha, num_pairs, den_pairs, scale=1):
    """scale * prod (u + alpha v) / prod (u + alpha v) over int pairs (u, v).

    The result is a pair (num, den) whose ``ratio`` is the value.  alpha
    is a Fraction, a RationalFunction or the pair (P, Q) of ``homogeneous``;
    scale an int or a Fraction.  For alpha = P / Q a factor is
    (Q u + P v) / Q, so the pair is two ints, unreduced, and a caller can
    sum such pairs over one denominator before its one division; a zero
    divisor is left for the caller to name.  A symbolic alpha gives
    (value, 1), the value the ``factored`` product converted once
    (``Factored.to_field``): in one parameter, equal keys cancel as a
    multiset and the rest are multiplied on dense int lists with no gcd.
    """
    p, q = alpha if alpha.__class__ is tuple else homogeneous(alpha)
    if p.__class__ is not int:
        return factored(p, num_pairs, den_pairs, scale).to_field(), 1
    s_num, s_den = (scale, 1) if scale.__class__ is int else homogeneous(scale)
    extra = len(den_pairs) - len(num_pairs)
    if extra and q != 1:
        if extra > 0:
            s_num *= q**extra
        else:
            s_den *= q**-extra
    for u, v in num_pairs:
        s_num *= q * u + p * v
    for u, v in den_pairs:
        s_den *= q * u + p * v
    return s_num, s_den


def param(name):
    if name not in _PINDEX:
        raise DomainError("unknown parameter %r" % name)
    return RationalFunction({_UNIT[_PINDEX[name]]: 1}, _P_ONE, _canonical=True)


ZERO = RationalFunction.from_int(0)
ONE = RationalFunction.from_int(1)

ALPHA = param("a")
N = param("n")
GAMMA = param("g")
G1 = param("g1")
G2 = param("g2")
R = param("r")
