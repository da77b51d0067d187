"""Records the exact outputs the benchmark compares byte for byte.

Usage, from the root of the repository:

    python3 perfbench/record_goldens.py           # write golden/*.txt
    python3 perfbench/record_goldens.py --check   # compare, write nothing

Goldens are recorded once, at the commit that defines the benchmark, and
must not be re-recorded by a change that claims a speed-up: exact outputs
have to stay byte-identical.  Before writing, every output is
cross-checked against a source that does not go through the same code:

* the literal outputs printed in the README and its quick start;
* the closed forms of acceptance criteria 4 (determinant moments) and 5
  (sixth trace power), and criterion 15's conjecture shape;
* the two Hermite constructions against each other;
* generalized binomials against the shifted-argument definition in
  ``tests/oracles.py``;
* alpha = 1 Jack tables against Kostka numbers counted from tableaux;
* the level-density polynomial against Gaussian moment identities (total
  mass 1 and the second moment 1 + beta (n - 1) / 2), and the beta = 4,
  n = 4 one against ``oracles.level_density_coeffs`` exactly;
* the truncated 0F0 against the partial sums of e.
"""

import argparse
import math
import os
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import jobs as joblib  # noqa: E402
import oracles  # noqa: E402

GOLDEN = os.path.join(HERE, "golden")


def exact_outputs():
    """job id -> (output text, result object or None) for every golden job."""
    from mops import cache

    out = {}
    for workload in ("symbolic", "numeric"):
        for spec in joblib.build(workload, 0):
            if "golden" not in spec["check"]:
                continue
            cache.clear_all()
            run, render = joblib.prepare(spec)
            result = run()
            out[spec["id"]] = (render(result), result)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("MOPS_CACHE_MB", None)
    for spec in joblib.build("cli", 0):
        if "golden" not in spec["check"]:
            continue
        proc = subprocess.run(
            [sys.executable, "-m", "mops.cli"] + spec["args"]["argv"],
            cwd=ROOT, env=env, capture_output=True, check=True,
        )
        out[spec["id"]] = (proc.stdout.decode(), None)
    return out


def cross_check(outputs):
    from mops import jack
    from mops.parser import parse_scalar
    from mops.rational import ALPHA as a
    from mops.rational import N, rf
    from oracles import kostka_row
    from tests_oracles import gbinomial_from_definition

    text = {job: value[0] for job, value in outputs.items()}
    obj = {job: value[1] for job, value in outputs.items()}
    checks = []

    def expect(name, ok):
        checks.append((name, bool(ok)))

    # README literals
    expect("README jack P[3], 2 vars", text["cli-jack-P3-v2"] == "m[3] + 3/(1+2*a)*m[2,1]\n")
    expect("README gbinomial", text["cli-gbinomial-2-1"] == "2\n")
    expect("README convert m2p", text["cli-convert-m2p"] == "-p[3] + p[2,1]\n")
    expect("README eval", text["cli-eval-C2"] == "3.0\n")
    expect(
        "README expect J[2,1]*C[1,1,1]",
        parse_scalar(text["cli-expect-hermite-v3"].strip()) == -36 * (a - 1) * (a + 3) / ((1 + a) * (2 + a)),
    )
    herm2 = text["cli-hermite-2"].strip().split(" + ", 1)[1]
    expect("README hermite (2,) constant term", parse_scalar(herm2) == -N * (N + a) / (1 + a))
    expect(
        "quick start gbinomial((3,1),(2,1)) matches the library call",
        parse_scalar(text["cli-gbinomial-3.1-2.1"].strip()) == __import__("mops").gbinomial(a, (3, 1), (2, 1)),
    )
    e = oracles.exp_partial_sum(8)
    expect("0F0 truncated at 8 = sum 1/k!", text["cli-hypergeom-xid"] == "%d/(%d)\n" % (e.numerator, e.denominator))

    # criteria 4, 5 and 15
    poly = a**4 + 10 * a**3 + 45 * a**2 + 80 * a + 89
    c25 = obj["expect-hermite-C2.2.2.2.2-n5"] / jack.jack_identity_value(a, (2,) * 5, "C", 5)
    expect("criterion 4 closed form", c25 == poly / a**4)
    m6 = obj["expect-hermite-m6"]
    cs = m6.series_coefficients("n", 4)
    expect(
        "criterion 5 Taylor coefficients",
        cs[0] == 0
        and cs[1] == (15 * a**3 - 32 * a**2 + 32 * a - 15) / a**3
        and cs[2] == (32 * a**2 - 54 * a + 32) / a**3
        and cs[3] == (22 * a - 22) / a**3
        and cs[4] == rf(5) / a**3,
    )
    expect("criterion 15 conjecture shape", all(e["conforming"] for e in obj["conjecture-6"]))

    # the two Hermite constructions
    for kappa in ("3.2.1", "2.2.2", "2.2.2.1"):
        expect("hermite == hermite2 for %s" % kappa, text["hermite-" + kappa] == text["hermite2-" + kappa])

    # generalized binomials from the definition (tests/oracles.py)
    table = obj["gbinomial-4.3.2.1"]
    for sigma in [(1,), (2, 1), (3, 2, 1), (4, 3, 2)]:
        expect(
            "gbinomial (4,3,2,1) choose %s by definition" % (sigma,),
            gbinomial_from_definition(a, (4, 3, 2, 1), sigma, 4) == table[sigma],
        )

    # alpha = 1 Jack tables: C = k!/hooks * s, s = sum K m
    for kappa in [(3, 3, 3, 3, 3), (14, 1)]:
        table = obj["jack-table-a1-%s" % ".".join(map(str, kappa))]
        k = sum(kappa)
        scale = Fraction(math.factorial(k), oracles._hooks(kappa))
        kostka = {lam: scale * c for lam, c in kostka_row(kappa, k).items() if c}
        expect("Kostka numbers for %s" % (kappa,), {lam: Fraction(c) for lam, c in table.items() if c} == kostka)
    for kappa in [(3, 2, 1), (4, 3, 1)]:
        name = ".".join(map(str, kappa))
        k = sum(kappa)
        scale = Fraction(math.factorial(k), oracles._hooks(kappa))
        kostka = {lam: scale * c for lam, c in kostka_row(kappa, k).items() if c}
        c_at_1 = {lam: c.substitute({"a": 1}).to_fraction() for lam, c in obj["jack-C-" + name].terms.items()}
        expect("generic C%s at a = 1 against Kostka numbers" % (kappa,), {l: c for l, c in c_at_1.items() if c} == kostka)

    # level density: Gaussian moment identities
    q = obj["level-polynomial-8.5"]

    def gauss(s):
        return oracles._gauss_moment(s)

    mass = sum(c * gauss(s) for s, c in enumerate(q))
    second = sum(c * gauss(s + 2) for s, c in enumerate(q))
    expect("level (8,5) total mass 1", mass == 1)
    expect("level (8,5) second moment 17", second == 1 + Fraction(8 * 4, 2))
    from mops import hypergeom

    expect("level (4,4) equals the Vandermonde oracle", hypergeom.level_density_polynomial(4, 4)
           == oracles.level_density_coeffs(4, 4))
    return checks


def main(argv=None):
    ap = argparse.ArgumentParser(description="record or check the benchmark's golden outputs")
    ap.add_argument("--check", action="store_true", help="compare with golden/, write nothing")
    args = ap.parse_args(argv)
    import importlib.util

    spec = importlib.util.spec_from_file_location("tests_oracles", os.path.join(ROOT, "tests", "oracles.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules["tests_oracles"] = module

    outputs = exact_outputs()
    bad = 0
    if args.check:
        for job, (text, _) in sorted(outputs.items()):
            with open(os.path.join(GOLDEN, job + ".txt")) as handle:
                same = handle.read() == text
            bad += not same
            print("%-40s %s" % (job, "same" if same else "DIFFERS"))
        return 1 if bad else 0
    for name, ok in cross_check(outputs):
        print("%-60s %s" % (name, "ok" if ok else "FAILED"))
        bad += not ok
    if bad:
        print("%d cross-checks failed; nothing written" % bad)
        return 1
    os.makedirs(GOLDEN, exist_ok=True)
    for job, (text, _) in outputs.items():
        with open(os.path.join(GOLDEN, job + ".txt"), "w") as handle:
            handle.write(text)
    print("wrote %d golden outputs to %s" % (len(outputs), GOLDEN))
    return 0


if __name__ == "__main__":
    sys.exit(main())
