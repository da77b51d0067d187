"""Expected values over the 2/alpha Hermite, Laguerre and Jacobi ensembles.

Everything reduces to the expectation of a single Jack polynomial C_kappa:
a generalized-Pochhammer closed form for Laguerre and Jacobi, and the
constant term of the Hermite polynomial for Hermite.  That term is
v_() C_kappa(I_m), v_() being the last value of the n-free recurrence of
``orthopoly.hermite`` (``orthopoly._hermite_values``), so no expansion is
built.  Expressions are first flattened to the Jack C basis and
expectation is applied by linearity.
"""

from fractions import Fraction

from . import binom, jack, orthopoly, partitions, symfun
from .errors import DomainError, UnsupportedModeError
from .rational import as_exact, as_int
from .symfun import GENERIC, as_nvars


# the weight exponents of each ensemble, all required
WEIGHT_PARAMS = {"hermite": (), "laguerre": ("g",), "jacobi": ("g1", "g2")}

# the largest k of ``conjecture_coefficients``: every coefficient conforms
# up to it, and k = 12 takes about a second
CONJECTURE_CAP = 12


class EnsembleSpec:
    """Which weight, its parameters, and the variable-count mode."""

    __slots__ = ("family", "alpha", "params", "nvars")

    def __init__(self, family, alpha, nvars=GENERIC, **params):
        if family not in WEIGHT_PARAMS:
            raise DomainError("unknown ensemble %r" % family)
        self.family = family
        self.alpha = jack._as_alpha(alpha)
        self.nvars = as_nvars(nvars, 1)
        checked = {}
        for name in WEIGHT_PARAMS[family]:
            if name not in params:
                raise DomainError("the %s ensemble needs the parameter %s" % (family, name))
            checked[name] = orthopoly._check_weight_param(params.pop(name), name)
        if params:
            raise DomainError("unexpected parameters: %s" % ", ".join(params))
        self.params = checked


def expect_jack_c(spec, kappa):
    """E[C_kappa] over the ensemble.

    Hermite: zero for odd k = |kappa|; for even k it is (-1)^(k/2) times
    the constant term v_() C_kappa(I_m) of the Hermite polynomial, v_()
    from ``orthopoly._hermite_values``.  Laguerre: (g + (m-1)/alpha + 1)_kappa
    C_kappa(I_m).  Jacobi: (c1)_kappa / (c2)_kappa C_kappa(I_m) with
    c1 = g1 + (m-1)/alpha + 1 and c2 = g1 + g2 + 2(m-1)/alpha + 2.  A
    Hermite zero, and the zero for kappa longer than m, is ``alpha * 0``.
    """
    kappa = partitions.as_partition(kappa)
    k = partitions.weight(kappa)
    alpha = spec.alpha
    if spec.nvars is not GENERIC and len(kappa) > spec.nvars:
        return alpha * 0
    m = orthopoly._check_nvars(kappa, spec.nvars)
    if spec.family == "hermite":
        if k % 2:
            return alpha * 0
        h0 = orthopoly._hermite_values(alpha, kappa)[()] * jack.jack_identity_value(alpha, kappa, "C", m)
        if not h0:
            return alpha * 0
        return h0 if (k // 2) % 2 == 0 else -h0
    ident = jack.jack_identity_value(alpha, kappa, "C", m)
    if spec.family == "laguerre":
        c1 = spec.params["g"] + (m - 1) / alpha + 1
        return binom.gsfact(alpha, c1, kappa) * ident
    c1 = spec.params["g1"] + (m - 1) / alpha + 1
    c2 = orthopoly._jacobi_g(alpha, spec.params["g1"], spec.params["g2"], m)
    return binom.gsfact(alpha, c1, kappa) / binom.gsfact(alpha, c2, kappa) * ident


def _expect_c_basis(spec, cexp):
    """E of a Jack C-basis SymExpr, by linearity."""
    total = None
    for kappa, coeff in cexp.terms.items():
        term = coeff * expect_jack_c(spec, kappa)
        total = term if total is None else total + term
    return total if total is not None else spec.alpha * 0


def expect_jack_expr(spec, expr):
    """E of an expression over Jack-basis leaves."""
    return _expect_c_basis(spec, symfun.jack2jack(spec.alpha, expr, spec.nvars))


def expect_monomial_expr(spec, expr):
    """E of an expression over monomial leaves."""
    if spec.nvars is GENERIC and symfun.has_true_product(expr):
        raise UnsupportedModeError(
            "products of monomials need a numeric variable count for expectations"
        )
    return _expect_c_basis(spec, symfun.m2jack(spec.alpha, expr, spec.nvars))


def conjecture_coefficients(alpha, k):
    """Structure report for the expansion m_[k] = sum f_lambda C_lambda.

    For each lambda the conjecture predicts f_lambda = (1/n(lambda)) *
    prod_{i >= 2} (-(i-1)/alpha)_{lambda_i} with n(lambda) a nonzero
    integer independent of alpha (the i = 1 factor is trivial).  Returns
    a list of dicts with the coefficient, the predicted integer when the
    shape holds, and a conforming flag; never raises on a counterexample.
    k above ``CONJECTURE_CAP`` raises DomainError.
    """
    alpha = jack._as_alpha(alpha)
    if as_int(k, "k", 1) > CONJECTURE_CAP:
        raise DomainError("k = %d exceeds the cap %d" % (k, CONJECTURE_CAP))
    expansion = symfun.m2jack(alpha, symfun.SymExpr("m", {(k,): 1}), GENERIC)
    report = []
    for lam in sorted(expansion.terms, reverse=True):
        f_lam = expansion.terms[lam]
        # prod_{i >= 2} (-(i-1)/alpha)_{lambda_i}, the symbol of lambda less its first row
        product = binom.gsfact(alpha, -1 / alpha, lam[1:])
        entry = {"partition": lam, "coefficient": f_lam, "n": None, "conforming": False}
        if product != 0:
            value = as_exact(f_lam / product)
            if isinstance(value, Fraction) and value != 0 and abs(value.numerator) == 1:
                entry["n"] = value.denominator * (1 if value.numerator > 0 else -1)
                entry["conforming"] = True
        report.append(entry)
    return report
