import pathlib
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest

from mops import jack, orthopoly as op
from mops.errors import DomainError, PoleError
from mops.expect import EnsembleSpec, expect_jack_c
from mops.partitions import partitions_of, subpartitions_of, weight
from mops.rational import ALPHA, G1, G2, GAMMA, N, rf
from mops.symfun import GENERIC, SymExpr, eval_numeric, expand_to_monomials, jack2jack

from oracles import (
    hermite_expect_2vars,
    hermite_moments,
    hermite_values_field,
    jacobi_moments,
    laguerre_moments,
    monic_orthogonal,
)
from test_symfun import _referrers

a = ALPHA
one = Fraction(1)


def _univariate(expansion, alpha):
    mono = expansion.to_monomials(alpha)
    degree = max((p[0] for p in mono.terms if p), default=0)
    coeffs = [mono.coefficient((d,)) if d else mono.coefficient(()) for d in range(degree + 1)]
    return [rf(c) if not hasattr(c, "text") else c for c in coeffs]


def test_hermite_univariate_classical():
    for k in range(1, 5):
        got = _univariate(op.hermite(one, (k,), 1), one)
        want = monic_orthogonal(hermite_moments(2 * k + 1), k)
        assert got == [rf(w) if isinstance(w, int) else w for w in want]


def test_laguerre_univariate_classical():
    # L_[k] at n=1 is (-1)^k times the monic Laguerre polynomial
    for k in range(1, 5):
        got = _univariate(op.laguerre(one, (k,), GAMMA, 1), one)
        want = monic_orthogonal(laguerre_moments(2 * k + 1), k)
        sign = -1 if k % 2 else 1
        assert got == [sign * (rf(w) if isinstance(w, int) else w) for w in want]


def test_jacobi_univariate_classical():
    for k in range(1, 5):
        got = _univariate(op.jacobi(one, (k,), G1, G2, 1), one)
        want = monic_orthogonal(jacobi_moments(2 * k + 1), k)
        sign = -1 if k % 2 else 1
        assert got == [sign * (rf(w) if isinstance(w, int) else w) for w in want]


def test_jacobi_univariate_alpha_free():
    # with one variable the repulsion factor is empty, so alpha drops out
    e = op.jacobi(a, (2,), G1, G2, 1)
    for coeff in e.terms.values():
        assert "a" not in coeff.free_parameters()


def test_hermite_table_values():
    h = op.hermite(a, (1,), GENERIC)
    assert h.terms == {(1,): rf(1)}
    h = op.hermite(a, (1, 1), GENERIC)
    assert h.coefficient(()) == N * (N - 1) / (1 + a)
    assert h.coefficient((1, 1)) == 1
    # constant forced by orthogonality to 1 (see the rotation oracle)
    h = op.hermite(a, (2,), GENERIC)
    assert h.coefficient(()) == -N * (N + a) / (1 + a)
    # H_[2,1] C_[1] coefficient
    h = op.hermite(a, (2, 1), GENERIC)
    expected = -6 * (N - 1) * (N + a) * (a - 1) / ((1 + 2 * a) * (2 + a))
    assert h.coefficient((1,)) == expected
    # H_[3] C_[1] coefficient: the univariate reduction x^3 - 3x forces the sign
    h = op.hermite(a, (3,), GENERIC)
    expected = -3 * (N + a) * (N + 2 * a) / ((1 + 2 * a) * (1 + a))
    assert h.coefficient((1,)) == expected


def test_laguerre_table_values():
    lag = op.laguerre(a, (1,), GAMMA, GENERIC)
    assert lag.coefficient((1,)) == -1
    assert lag.coefficient(()) == (GAMMA * a + N + a - 1) * N / a
    lag = op.laguerre(a, (2,), GAMMA, GENERIC)
    assert lag.coefficient((2,)) == 1
    assert lag.coefficient((1, 1)) == 0
    assert lag.coefficient((1,)) == -2 * (GAMMA * a + N + 2 * a - 1) * (N + a) / (
        a * (1 + a)
    )
    assert lag.coefficient(()) == (GAMMA * a + N + a - 1) * (
        GAMMA * a + N + 2 * a - 1
    ) * N * (N + a) / (a**2 * (1 + a))


def test_laguerre_leading_sign():
    for kap in [(1,), (2,), (2, 1), (3, 1)]:
        lag = op.laguerre(a, kap, GAMMA, GENERIC)
        assert lag.coefficient(kap) == (-1) ** weight(kap)


def test_jacobi_table_values():
    jac = op.jacobi(a, (1,), G1, G2, GENERIC)
    assert jac.coefficient((1,)) == -1
    denom = G1 * a + G2 * a + 2 * N - 2 + 2 * a
    assert jac.coefficient(()) == (G1 * a + N + a - 1) * N / denom
    jac = op.jacobi(a, (2,), G1, G2, GENERIC)
    assert jac.coefficient((1, 1)) == 0
    assert jac.coefficient((2,)) == 1
    # C_[1] coefficient carries the (-1)^s sign of the expansion formula
    expected = -2 * (G1 * a + N + 2 * a - 1) * (N + a) / (
        (G1 * a + G2 * a + 2 * N - 2 + 4 * a) * (1 + a)
    )
    assert jac.coefficient((1,)) == expected
    # constant verified by the operator eigencheck and the n=1 Gram-Schmidt oracle
    expected = (G1 * a + N + a - 1) * (G1 * a + N + 2 * a - 1) * N * (N + a) / (
        (G1 * a + G2 * a + 2 * N - 2 + 4 * a)
        * (G1 * a + G2 * a + 2 * N - 2 + 3 * a)
        * (1 + a)
    )
    assert jac.coefficient(()) == expected


@contextmanager
def _deadline(seconds):
    def expire(signum, frame):
        raise TimeoutError("over %g s" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "family, kappa, names",
    [
        ("laguerre", (2, 2), ("g",)),
        ("laguerre", (3, 2), ("g",)),
        ("jacobi", (3, 1), ("g1", "g2")),
        ("laguerre", (4, 3, 2, 1), ("g",)),
    ],
)
def test_generic_n_specialises_to_numeric(family, kappa, names):
    # each takes well under a second; they ran for minutes when the field
    # computed a full gcd on every operation
    build = getattr(op, family)
    symbols = {"g": GAMMA, "g1": G1, "g2": G2}
    with _deadline(20):
        generic = build(a, kappa, *(symbols[name] for name in names), GENERIC)
    points = [
        (Fraction(2, 3), 2, (Fraction(1, 2), Fraction(3, 4))),
        (Fraction(5, 2), 4, (Fraction(-1, 3), Fraction(7, 5))),
    ]
    for alpha, nvars, weights in points:
        # a partition of l > 2 parts needs l variables: n = 2, 4 become l, l + 2
        nvars += max(len(kappa) - 2, 0)
        weights = weights[: len(names)]
        numeric = build(alpha, kappa, *weights, nvars)
        bindings = {"a": alpha, "n": nvars, **dict(zip(names, weights))}
        assert set(numeric.terms) <= set(generic.terms)
        for sigma, coeff in generic.terms.items():
            assert coeff.substitute(bindings).to_fraction() == numeric.coefficient(sigma)


@pytest.mark.parametrize(
    "family, kappa, params",
    [
        ("hermite", (5, 4, 3, 2, 1), ()),
        ("laguerre", (4, 3, 2, 1), (GAMMA,)),
        ("jacobi", (4, 3, 1), (G1, G2)),
    ],
)
def test_generic_n_at_six_is_the_six_variable_construction(family, kappa, params):
    # alpha and the weight exponents stay symbolic; only n is bound
    build = getattr(op, family)
    with _deadline(20):
        generic = build(a, kappa, *params, GENERIC)
    six = build(a, kappa, *params, 6)
    assert set(six.terms) == set(generic.terms)
    for sigma, coeff in generic.terms.items():
        assert coeff.substitute({"n": 6}) == six.coefficient(sigma), sigma


def test_hermite_constructions_agree():
    for k in range(1, 5):
        for kap in partitions_of(k):
            assert op.hermite(a, kap, GENERIC).terms == op.hermite2(a, kap, GENERIC).terms
    for alpha in (one, Fraction(1, 4), Fraction(3, 2)):
        for n in (2, 3, 5):
            for k in range(1, 8):
                for kap in partitions_of(k, max_len=n):
                    assert op.hermite(alpha, kap, n).terms == op.hermite2(alpha, kap, n).terms


@pytest.mark.parametrize(
    "alpha, kappa, n", [(Fraction(1, 3), (6, 6, 6), 4), (Fraction(2, 3), (5, 3, 3, 1), 6)]
)
def test_hermite_constructions_agree_on_larger_partitions(alpha, kappa, n):
    # weights 18 and 12, past the k <= 7 grid above
    assert op.hermite(alpha, kappa, n).terms == op.hermite2(alpha, kappa, n).terms


def test_hermite_constant_term_matches_both_constructions():
    # E[C_kappa] is (-1)^(k/2) times the constant term of H_kappa, which
    # expect_jack_c reads from hermite's values alone; the weight cap falls
    # by 2 for each symbolic parameter (alpha, n)
    for alpha in (a, one, Fraction(2), Fraction(1, 3), Fraction(3, 2)):
        for n in (GENERIC, 1, 2, 3, 5):
            cap = 8 - 2 * ((alpha is a) + (n is GENERIC))
            spec = EnsembleSpec("hermite", alpha, n)
            for k in range(0, cap + 1, 2):
                for kap in partitions_of(k, max_len=n):
                    got = expect_jack_c(spec, kap)
                    got = -got if (k // 2) % 2 else got
                    for build in (op.hermite, op.hermite2):
                        want = op.eval_at_zero(build(alpha, kap, n))
                        assert got == want, (alpha, n, kap, build.__name__)
                        if want:
                            assert repr(got) == repr(want)


def test_hermite_values_form_steps_inside_kappa_alone():
    # at alpha = -1/2 the step (2, 2) -> (3, 2) leaves kappa and its
    # coefficient has a hook-product pole; no path of the recurrence takes
    # it.  106920 is the constant term the mu-walk of hermite2 sums.
    kappa = (2, 2, 1, 1)
    assert op._hermite_values(Fraction(-1, 2), kappa)[()] == -22
    assert expect_jack_c(EnsembleSpec("hermite", Fraction(-1, 2), 5), kappa) == 106920


_ZERO_IDENTITY_CASES = [(Fraction(-3, 2), kappa) for kappa in ((3, 3), (4, 3), (5, 3), (4, 4))] + [
    (Fraction(-2, 3), kappa) for kappa in ((7,), (8,))
]
_CONSTRUCTIONS = {
    "hermite": op.hermite,
    "hermite2": op.hermite2,
    "laguerre": lambda alpha, kappa, nvars: op.laguerre(alpha, kappa, 1, nvars),
    "jacobi": lambda alpha, kappa, nvars: op.jacobi(alpha, kappa, 1, 1, nvars),
}


@pytest.mark.parametrize("alpha, kappa", _ZERO_IDENTITY_CASES)
@pytest.mark.parametrize("family", sorted(_CONSTRUCTIONS))
def test_zero_identity_value_keeps_the_generic_ratio(family, alpha, kappa):
    # at n = 4 some C_sigma(I_n) and C_kappa(I_n) are both 0; the ratio is
    # the generic expansion's polynomial in n, which was a 0/0 division
    build = _CONSTRUCTIONS[family]
    got = {sigma: c for sigma, c in build(alpha, kappa, 4).terms.items() if c}
    want = {}
    for sigma, c in build(alpha, kappa, GENERIC).terms.items():
        value = rf(c).substitute({"n": 4}).to_fraction()
        if value:
            want[sigma] = value
    assert got == want


def test_hermite_values_readers():
    # one recurrence serves hermite, the level density and the Hermite
    # expectations; the mu-walk is hermite2's alone, the cross-check
    src = pathlib.Path(op.__file__).parent
    readers = {
        "_hermite_values": {"orthopoly.hermite", "expect.expect_jack_c", "hypergeom._level_density_coeffs"},
        "_hermite_mu_walk": {"orthopoly.hermite2"},
    }
    for target, want in readers.items():
        found = set()
        for path in sorted(src.glob("*.py")):
            found |= _referrers(path.read_text(), path.stem, target)
        assert found == want, target


def test_hermite2_examples():
    h = op.hermite2(a, (1, 1), GENERIC)
    assert h.terms == op.hermite(a, (1, 1), GENERIC).terms
    h = op.hermite2(one, (2,), 1)
    assert op.eval_at_zero(h) == -1
    h = op.hermite2(a, (2, 1), GENERIC)
    assert set(h.terms) == {(2, 1), (1,)}


def test_hermite_parity():
    for k in range(1, 7):
        for kap in partitions_of(k):
            h = op.hermite2(a, kap, GENERIC)
            for sigma in h.terms:
                assert (weight(sigma) - k) % 2 == 0


def test_eval_at_zero():
    assert op.eval_at_zero(op.hermite(a, (1,), GENERIC)) == 0
    lag = op.laguerre(a, (1,), GAMMA, GENERIC)
    assert op.eval_at_zero(lag) == (GAMMA * a + N + a - 1) * N / a
    jac = op.jacobi(a, (1,), G1, G2, GENERIC)
    assert op.eval_at_zero(jac) == (G1 * a + N + a - 1) * N / (
        G1 * a + G2 * a + 2 * N - 2 + 2 * a
    )


def test_eval_at_scalar_identity():
    from mops.rational import R

    h = op.hermite(one, (2,), 1)
    assert op.eval_at_scalar_identity(h, R, 1) == R**2 - 1
    lag = op.laguerre(a, (1,), GAMMA, 1)
    assert op.eval_at_scalar_identity(lag, rf(0), 1) == GAMMA + 1
    # at x = 1, m = n: sum of coefficients times identity values
    jac = op.jacobi(one, (2, 1), Fraction(1), Fraction(2), 3)
    total = sum(
        c * jack.jack_identity_value(one, s, "C", 3) for s, c in jac.terms.items()
    )
    assert op.eval_at_scalar_identity(jac, Fraction(1), 3) == total
    with pytest.raises(DomainError):
        op.eval_at_scalar_identity(h, rf(1), 2)


def test_identity_ratio_matches_jack():
    # C_kappa(I_m) / C_sigma(I_m) from the box product of kappa/sigma against
    # the quotient of two identity values; where C_sigma(I_m) is 0 (sigma
    # longer than m) the ratio is the generic polynomial's value at m
    for alpha in (one, Fraction(1, 4), Fraction(3, 2), a):
        kappas = [(4, 3, 1), (3, 3, 2, 1), (2, 2, 2, 2, 2)]
        if alpha is not a:
            kappas.append((8, 8, 8, 8))
        for m in (Fraction(3), Fraction(5), N):
            for kappa in kappas:
                top = jack.jack_identity_value(alpha, kappa, "C", m)
                for sigma in subpartitions_of(kappa):
                    got = op._identity_ratio(alpha, kappa, sigma, m)
                    below = jack.jack_identity_value(alpha, sigma, "C", m)
                    if below:
                        assert got == top / below, (alpha, kappa, sigma, m)
                    else:
                        generic = rf(op._identity_ratio(alpha, kappa, sigma, N))
                        assert len(sigma) > m and got == generic.substitute({"n": m}), (alpha, kappa, sigma, m)


def test_hermite_skips_the_poles_of_terms_it_does_not_hold():
    # at alpha = -1/2 the hooks of (2, 1) vanish, and (2, 1) is no term of
    # the Hermite polynomial of (2, 1, 1): both constructions give it, and it
    # passes the eigencheck; Laguerre holds C_(2,1) and raises
    alpha, kappa = Fraction(-1, 2), (2, 1, 1)
    h = op.hermite(alpha, kappa, 3)
    assert h.terms == op.hermite2(alpha, kappa, 3).terms
    assert (2, 1) not in h.terms and h.terms[kappa] == 1
    lhs = op.family_operator(h)
    assert lhs.terms == h.to_monomials(alpha).scale(op.family_eigenvalue(h)).terms
    with pytest.raises(PoleError, match=r"\(2, 1\)"):
        op.laguerre(alpha, kappa, 1, 3)


def test_orthogonality_to_constants():
    # E_H[C_kappa] = -H_kappa(0) for |kappa| = 2 via the rotation oracle at n=2
    for kap in [(2,), (1, 1)]:
        h0 = op.eval_at_zero(op.hermite(a, kap, 2))
        cexp = jack.jack_expand(a, kap, "C", 2)
        assert hermite_expect_2vars(cexp.terms, a) == -h0


def test_operator_eigenchecks():
    for k in range(1, 4):
        for kap in partitions_of(k):
            if len(kap) > 2:
                continue
            for build in (
                lambda kk: op.hermite(a, kk, 2),
                lambda kk: op.laguerre(a, kk, GAMMA, 2),
                lambda kk: op.jacobi(a, kk, G1, G2, 2),
            ):
                e = build(kap)
                lhs = op.family_operator(e)
                rhs = e.to_monomials(a).scale(op.family_eigenvalue(e))
                assert lhs.terms == rhs.terms, (e.family, kap)


def test_generic_jacobi_eigenvalue_is_a_polynomial_in_n():
    for alpha, params in ((a, (G1, G2)), (Fraction(2, 3), (Fraction(1, 2), Fraction(3)))):
        for kappa in ((1,), (2, 1), (3, 1, 1)):
            generic = op.family_eigenvalue(op.jacobi(alpha, kappa, *params, GENERIC))
            six = op.family_eigenvalue(op.jacobi(alpha, kappa, *params, 6))
            assert rf(generic).substitute({"n": 6}) == rf(six), (alpha, kappa)


@pytest.mark.parametrize("gamma", [0, Fraction(-1, 2), GAMMA], ids=["zero", "negative", "symbolic"])
def test_limit_check_takes_a_positive_number_gamma(gamma):
    with pytest.raises(DomainError, match="gamma"):
        op.laguerre_hermite_limit_check(one, (1,), 2, [100, gamma], [0.3, -0.7])


def test_numeric_domain_checks():
    with pytest.raises(DomainError):
        op.laguerre(a, (1,), Fraction(-1), GENERIC)
    with pytest.raises(DomainError):
        op.jacobi(a, (1,), Fraction(-2), Fraction(0), GENERIC)
    with pytest.raises(DomainError):
        op.hermite(a, (1, 1, 1), 2)  # more rows than variables
    # symbolic parameters skip the bound check
    op.laguerre(a, (1,), GAMMA - 5, GENERIC)


def test_laguerre_hermite_limit():
    grid = [100, 10**4, 10**6]
    for alpha, kap in [(1, (2,)), (1, (1, 1)), (2, (2,)), (2, (1, 1))]:
        devs = op.laguerre_hermite_limit_check(Fraction(alpha), kap, 2, grid, [0.3, -0.7])
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 1e-2


def test_limit_check_rate_for_one_box():
    # for kappa = [1] the deviation decays like gamma^(-1/2): each 100x
    # step in gamma shrinks it by roughly 10x
    devs = op.laguerre_hermite_limit_check(
        Fraction(1), (1,), 2, [100, 10**4, 10**6], [0.3, -0.7]
    )
    assert devs[0] > devs[1] > devs[2]
    for d1, d2 in zip(devs, devs[1:]):
        ratio = d1 / d2
        assert 3 < ratio < 30


def test_orthogonality_to_constants_weight_four():
    # E_H[C_kappa] = (-1)^(k/2) H_kappa(0) at n = 2 via the rotation oracle
    for kap in partitions_of(4):
        if len(kap) > 2:
            continue
        h0 = op.eval_at_zero(op.hermite(a, kap, 2))
        cexp = jack.jack_expand(a, kap, "C", 2)
        assert hermite_expect_2vars(cexp.terms, a) == h0  # (-1)^2 = +1


def test_symbolic_substitution_matches_numeric_path():
    from mops.rational import RationalFunction

    for kap in [(2, 1), (3,), (2, 2)]:
        sym = op.hermite2(a, kap, 3)
        num = op.hermite2(Fraction(2, 3), kap, 3)
        assert set(sym.terms) == set(num.terms)
        for sig, coeff in sym.terms.items():
            want = num.terms[sig]
            if isinstance(want, RationalFunction):
                want = want.to_fraction()
            assert coeff.substitute({"a": Fraction(2, 3)}).to_fraction() == want


@pytest.mark.parametrize("n", [2, 3])
def test_numeric_jacobi_is_the_symbolic_one_substituted(n):
    # Fraction alpha, g1 and g2 take the recurrence's int sums; a Fraction
    # alpha with symbolic g1 and g2 sums int pairs against field values
    point = {"a": Fraction(2, 3), "g1": Fraction(1, 2), "g2": Fraction(3, 4)}
    for k in range(1, 5):
        for kap in partitions_of(k):
            if len(kap) > n:
                continue
            sym = op.jacobi(a, kap, G1, G2, n)
            mixed = op.jacobi(point["a"], kap, G1, G2, n)
            num = op.jacobi(point["a"], kap, point["g1"], point["g2"], n)
            assert set(sym.terms) == set(mixed.terms) == set(num.terms), kap
            for sig, value in num.terms.items():
                assert type(value) is Fraction, (kap, sig)
                assert rf(sym.terms[sig]).substitute(point).to_fraction() == value, (kap, sig)
                assert rf(mixed.terms[sig]).substitute(point).to_fraction() == value, (kap, sig)


@pytest.mark.parametrize(
    "build",
    [
        op.hermite,
        op.hermite2,
        lambda alpha, kappa, n: op.laguerre(alpha, kappa, Fraction(1, 2), n),
        lambda alpha, kappa, n: op.jacobi(alpha, kappa, Fraction(0), Fraction(1, 3), n),
    ],
    ids=["hermite", "hermite2", "laguerre", "jacobi"],
)
def test_expansion_is_a_jack_symexpr(build):
    # an expansion goes wherever a C-basis SymExpr goes, with the same result
    alpha = Fraction(2, 3)
    for n in (GENERIC, 2, 3):
        e = build(alpha, (2, 1), n)
        assert isinstance(e, SymExpr) and e.basis == "C"
        assert e == e.as_symexpr() and not hasattr(e, "coeffs")
        assert jack2jack(alpha, e, n) == e.as_symexpr()
        if n is GENERIC:
            continue
        mono = e.to_monomials(alpha)
        assert expand_to_monomials(alpha, e, n) == mono
        xs = [Fraction(1, 3), Fraction(-2, 5), Fraction(3, 4)][:n]
        value = eval_numeric(e, xs, alpha)
        assert isinstance(value, Fraction) and value == eval_numeric(mono, xs)


@pytest.mark.parametrize(
    "alpha, top", [(ALPHA, 7), (-ALPHA, 7), (3 * ALPHA / 2 + 1, 6), (ALPHA**2, 5), (1 / ALPHA, 5)], ids=repr
)
def test_hermite_values_match_the_field_recurrence_path_by_path(alpha, top):
    # every kappa with |kappa| <= top: S, T and v held factored, against
    # the two-box recurrence taken path by path in the field
    for k in range(top + 1):
        for kappa in partitions_of(k):
            got = op._hermite_values(alpha, kappa)
            want = hermite_values_field(alpha, kappa)
            assert got.keys() == want.keys(), kappa
            assert all(rf(got[sigma]).text() == want[sigma].text() for sigma in want), kappa
