"""Symmetric-function expressions and conversions between bases.

A SymExpr is a linear combination of basis elements (monomial m, power-sum
p, or Jack C/J/P) indexed by partitions, with exact scalar coefficients
(Fractions in numeric-alpha mode, RationalFunctions in symbolic mode).
Input expressions with products and powers are product trees (Scalar,
Leaf, Sum, Prod, Pow).  ``_fold`` is the one walk over an expression: it
takes a tree or a SymExpr, a SymExpr counting as the sum of its terms, so
a tree and a SymExpr follow the same rules.

Every conversion goes through the monomial basis.  The one way in is
``expand_to_monomials``, a fold that expands each leaf and multiplies
monomials; the one way out is ``_sweep``, a triangular solve against the
monomial expansions of the target basis (Jack C for m2jack and jack2jack,
power sums for m2p).  At a symbolic alpha both hold the Jack tables'
``rational.Factored`` values as they are, and a public conversion takes
each coefficient of its answer to the field once (``_converted``);
``expect`` reads m2jack's and jack2jack's coefficients unconverted
(``_m2c``, ``_jack2c``).

Variable-count modes: an int fixes the number of variables n (an m or
Jack element on a partition longer than n is zero, a p element is not);
GENERIC (None) means a symbolic number of variables, where products of
monomials take the stabilized coefficients valid for every sufficiently
large n.  Products of Jack polynomials, and expectations of products,
need a numeric count.
"""

import math
import operator
from collections import Counter
from fractions import Fraction
from functools import partial, reduce

from . import cache, partitions
from .errors import DomainError, UnsupportedModeError
from .rational import RationalFunction, as_exact, as_finite, as_int, common_denominator, field_value, rf, to_float

GENERIC = None


def as_nvars(nvars, least=0):
    """nvars itself when it is GENERIC or an int >= least: a variable count."""
    return nvars if nvars is GENERIC else as_int(nvars, "the variable count", least)


BASES = ("m", "p", "C", "J", "P")
JACK_BASES = ("C", "J", "P")


class SymExpr:
    """Linear combination of basis elements in a single basis."""

    __slots__ = ("basis", "terms", "nvars")

    def __init__(self, basis, terms, nvars=GENERIC):
        if basis not in BASES:
            raise DomainError("unknown basis %r" % basis)
        nvars = as_nvars(nvars)
        clean = {}
        for part, coeff in terms.items():
            part = partitions.as_partition(part)
            as_exact(coeff, "a coefficient")
            if nvars is not GENERIC and len(part) > nvars and basis != "p":
                continue
            if coeff:
                clean[part] = clean[part] + coeff if part in clean else coeff
        self.basis = basis
        self.terms = {p: c for p, c in clean.items() if c}
        self.nvars = nvars

    @classmethod
    def _of_canonical(cls, basis, terms, nvars):
        """A SymExpr whose keys are canonical partitions within nvars.

        Skips the checks of ``__init__``; zero coefficients are dropped and
        the terms keep their order.
        """
        self = object.__new__(cls)
        self.basis = basis
        self.terms = {p: c for p, c in terms.items() if c}
        self.nvars = nvars
        return self

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, SymExpr)
            and self.basis == other.basis
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self.text())

    def add(self, other):
        if other.basis != self.basis or other.nvars != self.nvars:
            raise DomainError("cannot add expressions in different bases/modes")
        return _add_into(SymExpr._of_canonical(self.basis, self.terms, self.nvars), other)

    def scale(self, scalar):
        as_exact(scalar, "a scalar")
        return SymExpr._of_canonical(
            self.basis, {p: c * scalar for p, c in self.terms.items()}, self.nvars
        )

    def coefficient(self, part):
        return self.terms.get(partitions.as_partition(part), 0)

    def substitute(self, bindings):
        terms = {}
        for part, coeff in self.terms.items():
            if isinstance(coeff, RationalFunction):
                coeff = coeff.substitute(bindings)
            terms[part] = coeff
        return SymExpr(self.basis, terms, self.nvars)

    def sorted_terms(self):
        """Terms in decreasing lexicographic partition order."""
        return [(p, self.terms[p]) for p in sorted(self.terms, reverse=True)]

    def text(self):
        if not self.terms:
            return "0"
        chunks = []
        for part, coeff in self.sorted_terms():
            body = "%s[%s]" % (self.basis, ",".join(str(x) for x in part))
            coeff = rf(coeff)
            if not part:
                piece = coeff.text()
            elif coeff == 1:
                piece = body
            elif coeff == -1:
                piece = "-" + body
            else:
                piece = coeff.factor_text() + "*" + body
            if not chunks:
                chunks.append(piece)
            elif piece.startswith("-"):
                chunks.append(" - " + piece[1:])
            else:
                chunks.append(" + " + piece)
        return "".join(chunks)

    def to_json(self):
        items = [
            {"partition": list(part), "coeff": rf(coeff).to_json()}
            for part, coeff in self.sorted_terms()
        ]
        mode = "generic" if self.nvars is GENERIC else self.nvars
        return {"basis": self.basis, "varMode": mode, "terms": items}


# ---------------------------------------------------------------------------
# product-tree input form


class Scalar:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return "Scalar(%r)" % (self.value,)


class Leaf:
    __slots__ = ("basis", "partition")

    def __init__(self, basis, partition):
        if basis not in BASES:
            raise DomainError("unknown basis %r" % basis)
        self.basis = basis
        self.partition = partitions.as_partition(partition)

    def __repr__(self):
        return "Leaf(%s%r)" % (self.basis, list(self.partition))


class Sum:
    __slots__ = ("items",)

    def __init__(self, items):
        self.items = list(items)

    def __repr__(self):
        return "Sum(%r)" % (self.items,)


class Prod:
    __slots__ = ("items",)

    def __init__(self, items):
        self.items = list(items)

    def __repr__(self):
        return "Prod(%r)" % (self.items,)


class Pow:
    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent):
        if exponent < 0:
            raise DomainError("negative powers of basis elements not defined")
        self.base = base
        self.exponent = exponent

    def __repr__(self):
        return "Pow(%r, %d)" % (self.base, self.exponent)


def _fold(node, scalar, leaf, add, mul):
    """The one walk over an expression: a product tree or a SymExpr.

    A Scalar is ``scalar(value)``, a Leaf ``leaf(basis, partition, 1)`` and
    a SymExpr the sum of its terms ``leaf(basis, partition, coeff)``.  Sums
    fold with ``add`` from ``scalar(0)``, products with ``mul`` from
    ``scalar(1)``, and a Pow takes its base's value once and multiplies it
    in ``exponent`` times.  The left operand of ``add`` is always that
    fresh accumulator, so ``add`` may update it in place.
    """

    def ev(node):
        if isinstance(node, Scalar):
            return scalar(node.value)
        if isinstance(node, Leaf):
            return leaf(node.basis, node.partition, 1)
        if isinstance(node, SymExpr):
            terms = (leaf(node.basis, p, c) for p, c in node.terms.items())
            return reduce(add, terms, scalar(0))
        if isinstance(node, Sum):
            return reduce(add, map(ev, node.items), scalar(0))
        if isinstance(node, Prod):
            factors = map(ev, node.items)
        elif isinstance(node, Pow):
            factors = [ev(node.base)] * node.exponent
        else:
            raise DomainError("unknown expression node %r" % (node,))
        return reduce(mul, factors, scalar(1))

    return ev(node)


def _require_bases(expr, bases, message):
    """Raise DomainError(message % basis) for a basis element outside bases."""

    def leaf(basis, part, coeff):
        if basis not in bases:
            raise DomainError(message % basis)

    _fold(expr, lambda value: None, leaf, lambda x, y: None, lambda x, y: None)


def has_true_product(expr):
    """True when evaluating the expression multiplies two basis elements.

    The fold counts the basis elements in the longest product it forms.
    """
    return _fold(expr, lambda value: 0, lambda basis, part, coeff: 1, max, operator.add) > 1


def _add_into(acc, other):
    """Add other's terms to the SymExpr acc in place.

    A key whose sum cancels leaves the dict at once and re-enters at the
    end, the order of a sum taken term by term.
    """
    terms = acc.terms
    for part, coeff in other.terms.items():
        if part in terms:
            coeff = terms[part] + coeff
        if coeff:
            terms[part] = coeff
        else:
            terms.pop(part, None)
    return acc


# ---------------------------------------------------------------------------
# monomial products

def _distinct_rearrangements(part, n):
    """All distinct length-n vectors whose multiset of entries is part + 0s."""
    items = sorted(part) + [0] * (n - len(part))
    results = []

    def place(remaining, prefix):
        if not remaining:
            results.append(tuple(prefix))
            return
        seen = set()
        for idx in range(len(remaining)):
            v = remaining[idx]
            if v in seen:
                continue
            seen.add(v)
            place(remaining[:idx] + remaining[idx + 1 :], prefix + [v])

    place(items, [])
    return results


def mono_product(lam, mu, n):
    """Expansion of m_lam * m_mu in n variables: dict nu -> int coefficient.

    A generic n takes max(len(lam) + len(mu), 1) variables, where the
    coefficients are already the stabilized ones.
    """
    lam, mu = partitions.as_partition(lam), partitions.as_partition(mu)
    n = as_nvars(n)
    if n is GENERIC:
        n = max(len(lam) + len(mu), 1)
    if len(lam) > n or len(mu) > n:
        return {}
    if partitions.weight(lam) < partitions.weight(mu):
        lam, mu = mu, lam
    return _mono_product(lam, mu, n)


def _stabilizer(vec):
    """Product of the factorials of vec's multiplicities: n! / |orbit(vec)|."""
    return math.prod(map(math.factorial, Counter(vec).values()))


@cache.memo
def _mono_product(lam, mu, n):
    """m_lam * m_mu in n variables by orbit counting.

    The coefficient of m_nu counts the pairs (a, b) in the orbits of lam
    and mu with a + b = nu.  Over nu's orbit they number |orbit(nu)| times
    it, and |orbit(lam)| times the b with sorted(lam + b) = nu.
    """
    lam_vec = lam + (0,) * (n - len(lam))
    rearr = _distinct_rearrangements(mu, n)
    counts = Counter(tuple(sorted(map(operator.add, lam_vec, b), reverse=True)) for b in rearr)
    lam_stab = _stabilizer(lam_vec)
    return {tuple(p for p in nu if p): c * _stabilizer(nu) // lam_stab for nu, c in counts.items()}


def _mul_m(e1, e2, nvars):
    """e1 * e2 in the monomial basis, each pair of terms by ``mono_product``."""
    terms = {}
    for p1, c1 in e1.terms.items():
        for p2, c2 in e2.terms.items():
            c = c1 * c2
            for nu, mult in mono_product(p1, p2, nvars).items():
                terms[nu] = terms[nu] + c * mult if nu in terms else c * mult
    return SymExpr._of_canonical("m", terms, nvars)


def m2m(expr, nvars=GENERIC):
    """Flatten an expression over monomials into a monomial SymExpr."""
    _require_bases(expr, ("m",), "m2m expects monomial input, found %s")
    return expand_to_monomials(None, expr, nvars)


# ---------------------------------------------------------------------------
# power sums

def p2m(expr, nvars=GENERIC):
    """Expand an expression over power sums into monomials."""
    _require_bases(expr, ("p",), "p2m expects power-sum input, found %s")
    return expand_to_monomials(None, expr, nvars)


def m2p(expr):
    """Exact power-sum expansion of an expression over monomials.

    p_lam = aut(lam)*m_lam + lex-greater terms of its weight (aut: the
    product of its multiplicities' factorials), so min is solved first.
    """

    def column(lam):
        terms = expand_to_monomials(None, Leaf("p", lam)).terms
        return {nu: Fraction(c) for nu, c in terms.items()}

    return _converted("p", _sweep(m2m(expr, GENERIC), min, column), GENERIC)


def alpha_inner_product(f, g, alpha):
    """Jack inner product on power sums: <p_lam, p_mu> = delta * alpha^l * z."""
    if f.basis != "p" or g.basis != "p":
        raise DomainError("inner product is defined on power-sum expressions")
    alpha = as_exact(alpha, "alpha")
    total = 0
    for lam, cf in f.terms.items():
        cg = g.terms.get(lam)
        if cg:
            total = total + cf * cg * alpha ** len(lam) * partitions.z_aut(lam)
    return total


# ---------------------------------------------------------------------------
# the triangular sweep and Jack conversions


def _sweep(flat, pick, column):
    """The one triangular solve out of a monomial SymExpr: {lam: coefficient}.

    column(lam), the monomial expansion of the target basis element at lam
    in flat's variables, has its other terms beyond lam in the order pick
    walks, so the term pick takes is solved: its coefficient over the
    diagonal is the answer's.  A term that cancels to 0 is dropped when it
    is picked.  At a symbolic alpha a Jack column is
    ``rational.Factored``, J's int lists times C's hooks, and its diagonal
    alpha^k k! / (upper hooks) is all keys: each coefficient is held as the
    terms subtracted from it and added up once, when it is picked, and
    the answer is returned factored, for the caller's one conversion.
    """
    rest = dict(flat.terms)
    out = {}
    while rest:
        lam = pick(rest)
        value = rest.pop(lam)
        if not value:
            continue
        col = column(lam)
        scale = out[lam] = value / col[lam]
        for nu, c in col.items():
            if nu != lam:
                rest[nu] = rest.get(nu, 0) - scale * c
    return out


def _converted(basis, terms, nvars):
    """A SymExpr of held coefficients, each converted to its field once."""
    return SymExpr._of_canonical(basis, {lam: field_value(c) for lam, c in terms.items()}, nvars)


def m2jack(alpha, expr, nvars=GENERIC):
    """Rewrite a monomial expression in the Jack C basis.

    C_lam = c_lam*m_lam + terms dominated by lam, hence lex-less, so max
    is solved first.
    """
    return _converted("C", _m2c(alpha, expr, nvars), nvars)


def _m2c(alpha, expr, nvars):
    """``m2jack``'s coefficients, held: ``rational.Factored`` at a symbolic alpha."""
    from . import jack

    return _sweep(m2m(expr, nvars), max, partial(jack._c_table, alpha, nvars))


def expand_to_monomials(alpha, expr, nvars=GENERIC):
    """Expand a mixed-basis expression tree or SymExpr into the monomial basis.

    The one way into monomials: ``m2m``, ``p2m``, the columns of ``m2p``
    and ``eval_numeric`` all come here.  Jack leaves need alpha.  A p leaf
    is the product of its one-part monomials, p_lam = prod_i m_(lam_i),
    multiplied like any other product.
    """
    flat = _expand(alpha, expr, nvars)
    return _converted("m", flat.terms, nvars) if isinstance(alpha, RationalFunction) else flat


def _expand(alpha, expr, nvars):
    """``expand_to_monomials`` with a Jack leaf's values held, ``rational.Factored``
    at a symbolic alpha: sums and products of them are added up once each."""
    from . import jack

    mul = partial(_mul_m, nvars=nvars)

    def leaf(basis, part, coeff):
        if basis == "m":
            return SymExpr("m", {part: coeff}, nvars)
        if basis == "p":
            ones = (SymExpr("m", {(r,): 1}, nvars) for r in part)
            return reduce(mul, ones, SymExpr("m", {(): coeff}, nvars))
        if alpha is None:
            raise DomainError("Jack-basis leaves need alpha")
        return SymExpr._of_canonical("m", jack._jack_terms(alpha, part, basis, nvars), nvars).scale(coeff)

    return _fold(expr, lambda value: SymExpr("m", {(): value}, nvars), leaf, _add_into, mul)


def jack2jack(alpha, expr, nvars=GENERIC):
    """Flatten an expression over Jack and monomial leaves into the Jack C basis."""
    return _converted("C", _jack2c(alpha, expr, nvars), nvars)


def _jack2c(alpha, expr, nvars):
    """``jack2jack``'s coefficients, held: ``rational.Factored`` at a symbolic alpha."""
    from . import jack

    message = "jack2jack expects Jack or monomial leaves, found %s"
    _require_bases(expr, ("m",) + JACK_BASES, message)
    if nvars is GENERIC and has_true_product(expr):
        raise UnsupportedModeError("products of Jack polynomials need a numeric variable count")
    return _sweep(_expand(alpha, expr, nvars), max, partial(jack._c_table, alpha, nvars))


# ---------------------------------------------------------------------------
# numeric evaluation


def _orbit_sum(part, xs):
    """m_part at the int point xs: 0 when part has more parts than xs."""
    if len(part) > len(xs):
        return 0
    return sum(math.prod(x**e for x, e in zip(xs, vec) if e) for vec in _distinct_rearrangements(part, len(xs)))


def eval_numeric(expr, xs, alpha=None):
    """Value of the symmetric polynomial at the point xs, summed exactly.

    Coefficients must be fully bound.  Every basis other than m goes
    through ``expand_to_monomials`` first; Jack bases additionally need
    the numeric alpha that defines them.  A finite float is a dyadic
    Fraction, so the point goes over one common denominator d and each
    orbit sum of m_lam is an int over d^|lam|.  With a float coordinate
    the exact total is rounded once (DomainError past the float range).
    """
    xs = [as_finite(x, "a coordinate") for x in xs]
    n = len(xs)
    if expr.nvars is not GENERIC and expr.nvars != n:
        raise DomainError("expression uses %r variables, point has %d" % (expr.nvars, n))
    point = [Fraction(x) if isinstance(x, float) else as_exact(x, "a coordinate") for x in xs]
    if any(isinstance(x, RationalFunction) for x in point):
        raise DomainError("a coordinate must be a number")
    if expr.basis != "m":
        expr = expand_to_monomials(alpha, expr, n)
    ints, d = common_denominator(point)
    total = 0
    for part, coeff in expr.terms.items():
        coeff = as_exact(coeff, "a coefficient")
        if isinstance(coeff, RationalFunction):
            raise DomainError("unbound parameters: %s" % ", ".join(coeff.free_parameters()))
        total = total + coeff * Fraction(_orbit_sum(part, ints), d ** partitions.weight(part))
    return to_float(total) if any(isinstance(x, float) for x in xs) else total
