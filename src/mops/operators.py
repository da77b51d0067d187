"""Exact application of the ensemble differential operators.

Symmetric polynomials are expanded into explicit exponent vectors over a
fixed number of variables.  The singular pair terms
sum_{i != j} x_i^w / (x_i - x_j) d/dx_i (w in {0, 1, 2}) collapse to
polynomials by one rule: on a pair x_i^u x_j^v + x_i^v x_j^u they give
u D(u+w-1, v) + v D(v+w-1, u), with the divided difference

    D(A, B) = (x_i^A x_j^B - x_i^B x_j^A) / (x_i - x_j)
            = +-sum_{r=min(A,B)}^{max(A,B)-1} x_i^r x_j^{A+B-1-r},

the sign being that of A - B; so no rational-function division is ever
performed.  Coefficients are exact scalars (Fractions or rational
functions), exponents machine ints.
"""

from .errors import DomainError
from .rational import as_exact
from .symfun import GENERIC, SymExpr, _distinct_rearrangements, as_nvars


def expand_to_vectors(expr, nvars):
    """Monomial SymExpr -> dict exponent-vector -> coefficient."""
    if expr.basis != "m":
        raise DomainError("operators act on monomial expansions")
    out = {}
    for part, coeff in expr.terms.items():
        if len(part) > nvars:
            continue
        for vec in _distinct_rearrangements(part, nvars):
            out[vec] = coeff
    return out


def collect_to_symexpr(poly, nvars):
    """Inverse of expand_to_vectors; checks the result is symmetric."""
    terms = {}
    seen = {}
    for vec, coeff in poly.items():
        part = tuple(sorted(vec, reverse=True))
        if part in seen:
            if seen[part] != coeff:
                raise DomainError("operator produced a non-symmetric polynomial")
        else:
            seen[part] = coeff
            terms[tuple(p for p in part if p)] = coeff
    return SymExpr("m", terms, nvars)


def _add(poly, vec, coeff):
    if not coeff:
        return
    cur = poly.get(vec)
    new = coeff if cur is None else cur + coeff
    if new:
        poly[vec] = new
    else:
        del poly[vec]


def _apply_pairs(poly, w, out, factor):
    """factor * sum_{i != j} x_i^w / (x_i - x_j) d/dx_i, by the D(A, B) rule.

    Each unordered monomial pair {vec, swap_ij(vec)} is processed once,
    from the representative with u = vec_i >= v = vec_j: it gives
    u D(u+w-1, v) + v D(v+w-1, u), or u D(u+w-1, u) alone when u = v.
    """
    for vec, c in poly.items():
        fc = factor * c
        for i, u in enumerate(vec):
            for j in range(i + 1, len(vec)):
                v = vec[j]
                if u < v:
                    continue
                terms = [(u, u + w - 1, v)]
                if u > v:
                    terms.append((v, v + w - 1, u))
                for mult, a, b in terms:
                    if not mult or a == b:
                        continue
                    coeff = fc * (mult if a > b else -mult)
                    pre = list(vec)
                    for r in range(min(a, b), max(a, b)):
                        pre[i], pre[j] = r, a + b - 1 - r
                        _add(out, tuple(pre), coeff)


def _apply_second_derivative(poly, weight_exp, out):
    """sum_i x_i^weight_exp d^2/dx_i^2 (weight_exp in {0, 1, 2})."""
    drop = 2 - weight_exp
    for vec, c in poly.items():
        for i, u in enumerate(vec):
            if u < 2:
                continue
            coeff = c * (u * (u - 1))
            if drop == 0:
                _add(out, vec, coeff)
            else:
                lst = list(vec)
                lst[i] = u - drop
                _add(out, tuple(lst), coeff)


def _apply(poly, kind, alpha, out):
    """Add one operator applied to an exponent-vector polynomial into out."""
    if kind == "E":
        for vec, c in poly.items():
            _add(out, vec, c * sum(vec))
        return
    if kind == "eps":
        for vec, c in poly.items():
            for i, u in enumerate(vec):
                if u:
                    lst = list(vec)
                    lst[i] = u - 1
                    _add(out, tuple(lst), c * u)
        return
    weight_exp = {"dstar": 2, "deltastar": 1, "deltastarstar": 0}.get(kind)
    if weight_exp is None:
        raise DomainError("unknown operator %r" % kind)
    if alpha is None:
        raise DomainError("operator %s requires alpha" % kind)
    _apply_second_derivative(poly, weight_exp, out)
    _apply_pairs(poly, weight_exp, out, 2 / as_exact(alpha, "alpha"))


def apply_to_symexpr(expr, terms, alpha, nvars):
    """Apply sum scalar * operator over the (scalar, kind) pairs of terms.

    kind: 'dstar'        x^2 second derivatives + (2/a) x^2 pair terms
          'deltastar'    x   second derivatives + (2/a) x   pair terms
          'deltastarstar'     second derivatives + (2/a)    pair terms
          'E'            sum x_i d_i (degree operator)
          'eps'          sum d_i
    expr is a monomial SymExpr on nvars variables, and so is the result.
    """
    if as_nvars(nvars, 1) is GENERIC:
        raise DomainError("operator application needs a numeric variable count")
    poly = expand_to_vectors(expr, nvars)
    out = {}
    for scalar, kind in terms:
        scalar = as_exact(scalar, "an operator weight")
        _apply({vec: scalar * c for vec, c in poly.items()}, kind, alpha, out)
    return collect_to_symexpr(out, nvars)
