"""The benchmark's workloads: job lists, inputs made from the seed, and how
each job's output is rendered and checked.

The seed moves the offset of each x-grid and the order of the jobs in
each pass (curve points keep their left-to-right order, see
``pass_order``).  The offset is at most 0.2% of a grid step: every x differs
between seeds, but the series degree each point needs, which sets its
cost and the size of the partition lists it enumerates, stays the same.
Partition shapes and alpha are fixed per job, because the cost of two
shapes of the same size can differ by orders of magnitude.

A job spec is plain JSON.  ``check`` is either ``{"golden": name}``, an
exact output compared byte for byte with ``golden/<name>.txt``, or
``{"oracle": name, ...}``, float outputs compared with ``oracles.py``.

Left out because they do not finish in time at the seed commit (the
change that makes them finish can add them): ``largest_eig_cdf`` at
x >= 16 (32 s for one point), and generic-n Laguerre (2,2) and (3,2) and
Jacobi (3,1) with symbolic parameters (30 s to more than 600 s).
"""

import random

WORKLOADS = ("symbolic", "numeric", "cli")

FLOAT_TOL = 1e-9  # absolute, for every float output against its oracle


def grid(lo, hi, count, rng):
    """count points spanning [lo, hi], all moved by one seeded offset."""
    step = (hi - lo) / (count - 1)
    shift = rng.uniform(-0.002, 0.002) * step
    return [lo + shift + i * step for i in range(count)]


def _job(job_id, call, args, check=None, deadline_s=20.0):
    return {
        "id": job_id,
        "call": call,
        "args": args,
        "check": check if check is not None else {"golden": job_id},
        "deadline_s": deadline_s,
    }


def _name(kappa):
    return ".".join(str(p) for p in kappa)


def symbolic_jobs(rng):
    jobs = []
    for kappa in [(3, 2, 1), (4, 2, 1), (4, 3, 1), (3, 3, 2, 1)]:
        for norm in ("C", "J"):
            jobs.append(_job("jack-%s-%s" % (norm, _name(kappa)), "jack", {"kappa": kappa, "norm": norm}))
    jobs.append(_job("gbinomial-4.3.2.1", "gbinomial_table", {"kappa": (4, 3, 2, 1)}))
    for kappa in [(3, 2, 1), (2, 2, 2), (2, 2, 2, 1)]:
        for family in ("hermite", "hermite2"):
            jobs.append(_job("%s-%s" % (family, _name(kappa)), family, {"kappa": kappa}, deadline_s=40.0))
    jobs.append(_job("laguerre-3", "laguerre", {"kappa": (3,)}))
    jobs.append(_job("jacobi-2.1-n2", "jacobi", {"kappa": (2, 1), "nvars": 2}))
    jobs.append(_job("expect-hermite-m6", "expect_m", {"family": "hermite", "k": 6}, deadline_s=60.0))
    jobs.append(
        _job("expect-hermite-C2.2.2.2.2-n5", "expect_c", {"family": "hermite", "kappa": (2,) * 5, "nvars": 5})
    )
    for kappa in [(3,), (2, 1)]:
        jobs.append(_job("expect-laguerre-C%s" % _name(kappa), "expect_c", {"family": "laguerre", "kappa": kappa}))
    jobs.append(_job("expect-jacobi-C2", "expect_c", {"family": "jacobi", "kappa": (2,)}))
    jobs.append(_job("conjecture-6", "conjecture", {"k": 6}))
    return jobs


def numeric_jobs(rng):
    jobs = []
    for x in grid(2.0, 10.0, 8, rng):
        jobs.append(
            _job(
                "cdf-a1-x%.4f" % x, "largest_eig_cdf",
                {"alpha": "1", "gamma": "1", "m": 2, "x": x},
                {"oracle": "cdf_beta2", "gamma": "1", "m": 2, "xs": [x]},
            )
        )
    for x in grid(2.0, 4.0, 8, rng):
        jobs.append(
            _job(
                "cdf-a2-x%.4f" % x, "largest_eig_cdf",
                {"alpha": "2", "gamma": "1/2", "m": 3, "x": x},
                {"oracle": "cdf_beta1_m3", "gamma": "1/2", "xs": [x]},
            )
        )
    jobs.append(
        _job(
            "ghypergeom-xid", "ghypergeom",
            {"alpha": "2", "upper": ["1/2"], "lower": ["3/2"], "xid": ["1/2", 3], "tol": 1e-12},
        )
    )
    point = [0.3 + rng.uniform(-0.01, 0.01), 0.2 + rng.uniform(-0.01, 0.01), -0.1 + rng.uniform(-0.01, 0.01)]
    jobs.append(
        _job(
            "ghypergeom-vec", "ghypergeom",
            {"alpha": "1", "upper": ["1/2"], "lower": ["3/2"], "vec": point, "limit": 10},
            {"oracle": "hypergeom_alpha1", "upper": ["1/2"], "lower": ["3/2"], "point": point, "limit": 10},
        )
    )
    xs = grid(0.01, 12.0, 400, rng)
    jobs.append(
        _job(
            "smallest-density-1.3.3", "smallest_density",
            {"alpha": "1", "p": 3, "m": 3, "xs": xs},
            {"oracle": "smallest_beta2", "p": 3, "m": 3, "xs": xs},
        )
    )
    jobs.append(_job("level-polynomial-8.5", "level_polynomial", {"beta": 8, "n": 5}, deadline_s=60.0))
    for kappa in [(3, 3, 3, 3, 3), (14, 1)]:
        jobs.append(_job("jack-table-a1-%s" % _name(kappa), "jack_table", {"alpha": "1", "kappa": kappa}))
    for job in jobs:
        if job["call"] == "largest_eig_cdf":
            job["curve"] = job["id"][:6]
    return jobs


def _csv_grid(lo, hi, count, rng):
    xs = grid(lo, hi, count, rng)
    return xs, "%r:%r:%d" % (xs[0], xs[-1], count)


def cli_jobs(rng):
    """The README's commands, plus quick-start equivalents, one process each."""
    jobs = []

    def add(job_id, argv, check=None):
        jobs.append(_job(job_id, "cli", {"argv": argv}, check, deadline_s=30.0))

    add("cli-jack-P3-v2", ["jack", "--alpha", "a", "--partition", "3", "--vars", "2", "--norm", "P"])
    add("cli-gbinomial-2-1", ["gbinomial", "--alpha", "a", "--kappa", "2", "--sigma", "1"])
    add("cli-gbinomial-3.1-2.1", ["gbinomial", "--alpha", "a", "--kappa", "3,1", "--sigma", "2,1"])
    add("cli-expect-hermite-v3", ["expect", "--ensemble", "hermite", "--alpha", "a", "--vars", "3",
                                  "--expr", "J[2,1]*C[1,1,1]"])
    add("cli-convert-m2p", ["convert", "--what", "m2p", "--expr", "m[2,1]"])
    add("cli-hermite-1.1-json", ["hermite", "--alpha", "a", "--partition", "1,1", "--format", "json"])
    add("cli-hermite-2", ["hermite", "--alpha", "a", "--partition", "2"])
    add("cli-hypergeom-xid", ["hypergeom", "--alpha", "1", "--upper", "", "--lower", "", "--xid", "1:1",
                              "--limit", "8"])
    add("cli-eval-C2", ["eval", "--alpha", "1", "--expr", "C[2]", "--at", "1,1"])
    point = [0.5 + rng.uniform(-0.01, 0.01), 0.25 + rng.uniform(-0.01, 0.01), 0.125 + rng.uniform(-0.01, 0.01)]
    add("cli-jack-at", ["jack", "--alpha", "1", "--partition", "2,1", "--vars", "3", "--at",
                        ",".join(repr(x) for x in point)],
        {"oracle": "jack_c_alpha1", "kappa": [2, 1], "point": point})
    xs, spec = _csv_grid(0.01, 12.0, 400, rng)
    add("cli-density-smallest", ["density", "smallest", "--alpha", "1", "--p", "3", "--m", "3", "--grid", spec],
        {"oracle": "smallest_beta2", "p": 3, "m": 3, "xs": xs})
    xs, spec = _csv_grid(-1.2, 1.2, 400, rng)
    add("cli-density-level", ["density", "level", "--beta", "4", "--n", "4", "--grid=" + spec, "--scaled"],
        {"oracle": "level", "beta": 4, "n": 4, "scaled": True, "xs": xs})
    x = 4.0 + rng.uniform(-0.05, 0.05)
    add("cli-density-largest-m1", ["density", "largest-cdf", "--alpha", "2", "--g", "1/2", "--m", "1",
                                   "--x", repr(x)],
        {"oracle": "cdf_m1", "gamma": "1/2", "xs": [x]})
    xs, spec = _csv_grid(2.0, 6.0, 5, rng)
    add("cli-density-largest-m2", ["density", "largest-cdf", "--alpha", "1", "--g", "1", "--m", "2",
                                   "--grid", spec],
        {"oracle": "cdf_beta2", "gamma": "1", "m": 2, "xs": xs})
    return jobs


def build(workload, seed):
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    rng = random.Random("%s:%d" % (workload, seed))
    return {"symbolic": symbolic_jobs, "numeric": numeric_jobs, "cli": cli_jobs}[workload](rng)


# The job a traced run times with and without the layer wrappers, by the
# start of its id: jobs of medium cost that cross every busy layer.
OVERHEAD_PROBES = {"symbolic": "expect-laguerre-C3", "numeric": "cdf-a2-", "cli": "cli-expect-hermite-v3"}
OVERHEAD_PAIRS = 3  # traced/untraced pairs of the probe, in alternating order


def overhead_probe(workload, specs):
    """The index in specs of the workload's overhead probe job."""
    prefix = OVERHEAD_PROBES[workload]
    return next(i for i, spec in enumerate(specs) if spec["id"].startswith(prefix))


def pass_order(workload, seed, pass_index, specs):
    """The order of the jobs in one pass.

    Curve points come first, each curve left to right, as a user drawing
    the curves computes them; every other job follows, shuffled by
    the seed.  Shuffling the curve points would hand the cost of filling
    the memo tables to a different point in every pass, and change which
    tables are alive when the largest partition lists are built.
    """
    curves = [i for i, spec in enumerate(specs) if spec.get("curve")]
    rest = [i for i, spec in enumerate(specs) if not spec.get("curve")]
    random.Random("%s:%d:pass%d" % (workload, seed, pass_index)).shuffle(rest)
    return curves + rest


# ---------------------------------------------------------------------------
# in-process jobs: built into zero-argument callables before timing starts


def _scalar(text):
    from mops.parser import parse_scalar

    value = parse_scalar(text)
    return value.to_fraction() if value.is_constant else value


def _table_text(table):
    return "".join(
        "%s: %s\n" % (",".join(map(str, key)), _as_text(table[key])) for key in sorted(table, reverse=True)
    )


def _as_text(value):
    from mops.rational import RationalFunction

    if isinstance(value, RationalFunction):
        return value.text()
    return str(value)


def prepare(spec):
    """(run, render): run() computes the result; render(result) gives the
    output to check, a str for exact results or a list of floats."""
    from mops import binom, expect, hypergeom, jack, orthopoly
    from mops.rational import ALPHA, G1, G2, GAMMA
    from mops.symfun import GENERIC, SymExpr

    call, args = spec["call"], spec["args"]
    kappa = tuple(args.get("kappa", ()))
    exact = _as_text
    floats = lambda value: [float(v) for v in value]  # noqa: E731

    if call == "jack":
        return (lambda: jack.jack_expand(ALPHA, kappa, args["norm"], GENERIC)), (lambda e: e.text())
    if call == "gbinomial_table":
        return (lambda: binom.gbinomial_table(ALPHA, kappa)), _table_text
    if call in ("hermite", "hermite2"):
        fn = getattr(orthopoly, call)
        return (lambda: fn(ALPHA, kappa, GENERIC)), (lambda e: e.as_symexpr().text())
    if call == "laguerre":
        return (lambda: orthopoly.laguerre(ALPHA, kappa, GAMMA, GENERIC)), (lambda e: e.as_symexpr().text())
    if call == "jacobi":
        nvars = args["nvars"]
        return (lambda: orthopoly.jacobi(ALPHA, kappa, G1, G2, nvars)), (lambda e: e.as_symexpr().text())
    if call in ("expect_m", "expect_c"):
        params = {"laguerre": {"g": GAMMA}, "jacobi": {"g1": G1, "g2": G2}}.get(args["family"], {})
        ens = expect.EnsembleSpec(args["family"], ALPHA, args.get("nvars", GENERIC), **params)
        if call == "expect_m":
            expr = SymExpr("m", {(args["k"],): 1})
            return (lambda: expect.expect_monomial_expr(ens, expr)), exact
        return (lambda: expect.expect_jack_c(ens, kappa)), exact
    if call == "conjecture":
        def render(report):
            return "".join(
                "%s: %s | n=%s conforming=%s\n"
                % (",".join(map(str, e["partition"])), exact(e["coefficient"]), e["n"], e["conforming"])
                for e in report
            )
        return (lambda: expect.conjecture_coefficients(ALPHA, args["k"])), render
    if call == "largest_eig_cdf":
        alpha, gamma, m, x = _scalar(args["alpha"]), _scalar(args["gamma"]), args["m"], args["x"]
        return (lambda: [hypergeom.largest_eig_cdf(alpha, gamma, m, x)]), floats
    if call == "ghypergeom":
        alpha = _scalar(args["alpha"])
        upper = [_scalar(t) for t in args["upper"]]
        lower = [_scalar(t) for t in args["lower"]]
        if "xid" in args:
            arg = ("xid", _scalar(args["xid"][0]), args["xid"][1])
            tol = args["tol"]
            return (lambda: hypergeom.ghypergeom(alpha, upper, lower, arg, tol=tol)), exact
        arg = ("vec", list(args["vec"]))
        limit = args["limit"]
        return (lambda: [hypergeom.ghypergeom(alpha, upper, lower, arg, limit=limit)]), floats
    if call == "smallest_density":
        alpha, p, m, xs = _scalar(args["alpha"]), args["p"], args["m"], list(args["xs"])
        return (lambda: hypergeom.smallest_eig_density_normalized(alpha, p, m, xs)[0]), floats
    if call == "level_polynomial":
        beta, n = args["beta"], args["n"]
        return (lambda: hypergeom.level_density_polynomial(beta, n)), (lambda q: "".join("%s\n" % c for c in q))
    if call == "jack_table":
        alpha = _scalar(args["alpha"])
        return (lambda: jack.jack_monomial_coefficients(alpha, kappa)), _table_text
    raise ValueError("unknown job call %r" % call)


def parse_cli_output(stdout):
    """The floats a CLI job printed: a density CSV or one value."""
    lines = [line for line in stdout.splitlines() if line and not line.startswith("#")]
    if lines and lines[0] == "x,density":
        pairs = [line.split(",") for line in lines[1:]]
        return {"xs": [float(a) for a, _ in pairs], "values": [float(b) for _, b in pairs]}
    return {"xs": None, "values": [float(lines[-1])]}
