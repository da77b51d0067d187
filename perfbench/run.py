"""The mops benchmark: one workload, one seed, checked outputs, one JSON line.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload symbolic|numeric|cli --seed N \\
        --seconds S --trace 0|1

Every workload is a closed loop: one client, one job at a time, no extra
threads.  ``symbolic`` and ``numeric`` run in one worker process
(``worker.py``); ``cli`` runs each command as a fresh ``python3 -m mops.cli``
process, one after another.  The library is loaded from ``src/`` (it need
not be installed) with ``MOPS_CACHE_MB`` unset and no ``--config``.

Whole passes over the job list are run until ``--seconds`` are used up,
and at least two.  Every output is checked: exact outputs byte for byte
against ``golden/``, float outputs against the mpmath oracles of
``oracles.py``.  A job fails if it raises, misses its deadline, or its
output fails the check.

Set-up probes (fresh interpreters timed up to the worker's ``ready``) run
before the first pass and after every pass; setup_s is their median.
The job timings (wall_s, job_p50_s, job_tail_s) are rescaled to the
reference machine speed of ``speed.py``, from loop times taken next to the
jobs; a line before the last gives them unscaled.  setup_s is not
rescaled: interpreter start and imports do not follow the loop's speed.

With ``--trace 0`` the last line reports the end-to-end metrics, from
untraced passes only.  With ``--trace 1`` every second pass runs with the
layer wrappers of ``layertrace.py`` and the last line reports the
per-layer metrics, including the tracing overhead: what the wrappers add
to one probe job, timed with and without them in the same process.
Metric names and units are those ``BENCHMARK.json`` declares.  Lines
before the last one describe the run for a reader.
"""

import argparse
import contextlib
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import jobs as joblib  # noqa: E402
import layertrace  # noqa: E402
import speed  # noqa: E402

SETUP_PROBES_FIRST = 3  # set-up probes before the first pass
SETUP_PROBES_BETWEEN = 1  # and after every pass
LOOPS_PER_JOB = 4  # speed.py loops timed before each CLI command
RUN_LIMIT_S = 170.0  # no job process outlives this, counted from the start
MIN_PASSES = 2
ERR_FLOOR = 1e-17  # below the rounding error of a double in (0, 1)


def declared_units():
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}}, as
    BENCHMARK.json at the root of the checkout declares them."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    return {kind: {m["name"]: m["unit"] for m in bench[kind]} for kind in ("end_to_end", "per_layer")}


def with_units(values, units):
    """Every declared metric with its value and unit, in declared order."""
    if set(values) != set(units):
        raise SystemExit("computed metrics %s differ from those BENCHMARK.json declares %s"
                         % (sorted(values), sorted(units)))
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


class Deadline(BaseException):
    """Raised by the interval timer when a child process overruns."""


@contextlib.contextmanager
def deadline(seconds):
    def on_alarm(signum, frame):
        raise Deadline()

    signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.001))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def wait_child(proc, timeout):
    """Wait for proc, killing it after timeout seconds.

    Returns (exit code, or None when it was killed; resource usage).
    """
    try:
        with deadline(timeout):
            _, status, usage = os.wait4(proc.pid, 0)
        code = os.waitstatus_to_exitcode(status)
    except Deadline:
        proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        code = None
    proc.returncode = os.waitstatus_to_exitcode(status)
    return code, usage


def tail_quantile(jobs_per_pass):
    """The highest quantile with at least 10 samples beyond it in two passes."""
    n = MIN_PASSES * jobs_per_pass
    return max(0.0, (n - 10) / n)


def lower_quantile(values, q):
    ordered = sorted(values)
    return ordered[int(math.floor(q * (len(ordered) - 1)))]


# ---------------------------------------------------------------------------
# import-time breakdown


def parse_importtime(text):
    """(seconds importing mops, seconds of that spent importing scipy)."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append([depth, int(cum), name.strip(), None])
    stack = []
    for i, entry in enumerate(entries):
        # -X importtime prints a module after the modules it imported, one
        # indentation level deeper
        while stack and entries[stack[-1]][0] > entry[0]:
            entries[stack.pop()][3] = i
        stack.append(i)

    def has_ancestor(i, prefix):
        parent = entries[i][3]
        while parent is not None:
            if entries[parent][2].split(".")[0] == prefix:
                return True
            parent = entries[parent][3]
        return False

    mops_us = scipy_us = 0
    for i, (_, cum, name, _) in enumerate(entries):
        top = name.split(".")[0]
        if top == "mops" and not has_ancestor(i, "mops"):
            mops_us += cum
        elif top == "scipy" and has_ancestor(i, "mops") and not has_ancestor(i, "scipy"):
            scipy_us += cum
    return mops_us / 1e6, scipy_us / 1e6


# ---------------------------------------------------------------------------
# checks


class Checker:
    """Checks outputs: golden digests for exact ones, oracles for floats."""

    def __init__(self, specs):
        self.expected = {}
        self.golden = {}
        self.max_abs_err = 0.0
        self.problems = []
        for spec in specs:
            check = spec["check"]
            if "golden" in check:
                path = os.path.join(HERE, "golden", check["golden"] + ".txt")
                if not os.path.exists(path):
                    raise SystemExit("missing golden output %s" % path)
                with open(path, "rb") as handle:
                    self.golden[spec["id"]] = hashlib.sha256(handle.read()).hexdigest()
            else:
                self.expected[spec["id"]] = oracle_values(check)

    def check(self, spec, record):
        """True when the record's output is right; records the float error."""
        job = spec["id"]
        floats, xs = record.get("floats"), record.get("xs")
        if job in self.golden:
            ok = record.get("sha256") == self.golden[job]
            if not ok:
                self.problems.append("%s: output differs from golden/%s.txt" % (job, spec["check"]["golden"]))
            return ok
        want = self.expected[job]
        if floats is None or len(floats) != len(want):
            self.problems.append("%s: expected %d float outputs" % (job, len(want)))
            return False
        if xs is not None:
            grid = spec["check"]["xs"]
            if len(xs) != len(grid) or max(abs(a - b) for a, b in zip(xs, grid)) > 1e-9:
                self.problems.append("%s: printed grid differs from the requested one" % job)
                return False
        err = max(abs(a - b) if math.isfinite(a) else math.inf for a, b in zip(floats, want))
        self.max_abs_err = max(self.max_abs_err, err)
        if err > joblib.FLOAT_TOL:
            self.problems.append("%s: float error %.3g above %.0e" % (job, err, joblib.FLOAT_TOL))
            return False
        return True


def oracle_values(check):
    import oracles
    from fractions import Fraction

    name = check["oracle"]
    if name == "cdf_beta2":
        return [oracles.cdf_beta2(Fraction(check["gamma"]), check["m"], x) for x in check["xs"]]
    if name == "cdf_beta1_m3":
        return [oracles.cdf_beta1_m3(Fraction(check["gamma"]), x) for x in check["xs"]]
    if name == "cdf_m1":
        return [oracles.cdf_m1(Fraction(check["gamma"]), x) for x in check["xs"]]
    if name == "smallest_beta2":
        return [oracles.smallest_density_beta2(check["p"], check["m"], x) for x in check["xs"]]
    if name == "level":
        coeffs = oracles.level_density_coeffs(check["beta"], check["n"])
        scale = 2 * check["n"] * check["beta"] if check["scaled"] else None
        return [oracles.level_density(coeffs, x, scale) for x in check["xs"]]
    if name == "hypergeom_alpha1":
        upper = [Fraction(t) for t in check["upper"]]
        lower = [Fraction(t) for t in check["lower"]]
        return [oracles.hypergeom_alpha1(upper, lower, check["point"], check["limit"])]
    if name == "jack_c_alpha1":
        return [oracles.jack_c_alpha1(tuple(check["kappa"]), check["point"])]
    raise ValueError("unknown oracle %r" % name)


# ---------------------------------------------------------------------------
# runs


class Bench:
    def __init__(self, args, root):
        self.args = args
        self.root = root
        self.work = os.path.join(root, ".bench_build", "perfbench")
        os.makedirs(self.work, exist_ok=True)
        env = dict(os.environ)
        env.pop("MOPS_CACHE_MB", None)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env
        self.python = sys.executable
        self.started = time.perf_counter()
        # set-up probes: seconds to "ready", and with --trace 1 bare
        # interpreter starts and the import-time split
        self.setup = {"elapsed": [], "spawn": [], "imports": []}

    def path(self, name):
        return os.path.join(self.work, name)

    def remaining(self):
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def compile_bytecode(self):
        # users pay bytecode compilation once per install, not once per command
        subprocess.run(
            [self.python, "-m", "compileall", "-q", "src", os.path.relpath(HERE, self.root)],
            cwd=self.root, env=self.env, check=True, stdout=subprocess.DEVNULL, timeout=self.remaining(),
        )

    def setup_probe(self, importtime):
        """Seconds from starting a fresh interpreter to its 'ready' line."""
        cmd = [self.python]
        if importtime:
            cmd += ["-X", "importtime"]
        cmd += [os.path.join(HERE, "worker.py"), "--workload", self.args.workload,
                "--seed", str(self.args.seed), "--setup-only"]
        err_path = self.path("probe-stderr.txt")
        line = b""
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=err)
            try:
                with deadline(self.remaining()):
                    line = proc.stdout.readline()
            except Deadline:
                pass
            elapsed = time.perf_counter() - t0
            proc.stdout.close()
            code, _ = wait_child(proc, self.remaining())
        if line.strip() != b"ready" or code != 0:
            raise SystemExit("set-up probe failed (exit %s); see %s" % (code, err_path))
        if not importtime:
            return elapsed, None
        with open(err_path) as handle:
            return elapsed, parse_importtime(handle.read())

    def probe_setup(self, count):
        for _ in range(count):
            if self.args.trace:
                self.setup["spawn"].append(self.bare_start())
            elapsed, split = self.setup_probe(importtime=bool(self.args.trace))
            self.setup["elapsed"].append(elapsed)
            if split is not None:
                self.setup["imports"].append(split)

    def bare_start(self):
        t0 = time.perf_counter()
        subprocess.run([self.python, "-c", "pass"], cwd=self.root, env=self.env, check=True,
                       timeout=max(self.remaining(), 0.001))
        return time.perf_counter() - t0

    # -- passes --------------------------------------------------------

    def run_passes(self, specs):
        """Whole passes until --seconds are used up, and at least MIN_PASSES.

        Set-up probes run before the first pass and after every pass, so
        that they sample the machine over the whole run.  With --trace 1
        every second pass is traced.
        """
        self.spans = self.path("spans-%s-%d.jsonl" % (self.args.workload, self.args.seed))
        if os.path.exists(self.spans):
            os.remove(self.spans)
        passes = []
        started = time.perf_counter()
        self.probe_setup(SETUP_PROBES_FIRST)
        while True:
            traced = bool(self.args.trace) and len(passes) % 2 == 1
            if self.args.workload == "cli":
                result = self.cli_pass(specs, len(passes), traced)
            else:
                result = self.worker_pass(specs, len(passes), traced)
            result["traced"] = traced
            passes.append(result)
            self.probe_setup(SETUP_PROBES_BETWEEN)
            elapsed = time.perf_counter() - started
            typical = statistics.median(p["elapsed"] for p in passes)
            if len(passes) >= MIN_PASSES and elapsed + typical > self.args.seconds:
                break
            if self.remaining() < 1.5 * typical:
                break
        return passes

    def worker_pass(self, specs, index, traced):
        """One pass of symbolic or numeric, in a fresh worker process."""
        out = self.path("worker-%s.json" % self.args.workload)
        if os.path.exists(out):
            os.remove(out)
        cmd = [self.python, os.path.join(HERE, "worker.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--pass-index", str(index),
               "--trace", str(int(traced)), "--out", out, "--spans", self.spans]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env)
        code, _ = wait_child(proc, self.remaining())
        if code == 0:
            with open(out) as handle:
                return json.load(handle)
        why = "worker killed at the run's time limit" if code is None else "worker exit %d" % code
        elapsed = time.perf_counter() - t0
        jobs = [{"id": spec["id"], "status": "error", "t": None, "error": why} for spec in specs]
        return {"wall": elapsed, "elapsed": elapsed, "jobs": jobs, "peak_rss_mb": 0.0,
                "loop_times": speed.samples(LOOPS_PER_JOB)}

    def cli_pass(self, specs, index, traced):
        """One pass of cli: every command as a fresh process, one after another."""
        records = []
        loop_times = []
        counters = None
        peak_kb = 0
        t_pass = time.perf_counter()
        for i in joblib.pass_order("cli", self.args.seed, index, specs):
            loop_times += speed.samples(LOOPS_PER_JOB)
            record, usage, job_counters = self.run_command(specs[i], traced, self.spans)
            records.append(record)
            peak_kb = max(peak_kb, usage.ru_maxrss)
            if job_counters is not None:
                counters = job_counters if counters is None else layertrace.merge(counters, job_counters)
        result = {"wall": sum(r["t"] for r in records), "elapsed": time.perf_counter() - t_pass,
                  "jobs": records, "peak_rss_mb": peak_kb / 1024.0, "loop_times": loop_times}
        if counters is not None:
            result["counters"] = counters
            result["overhead"] = self.cli_overhead_probe(specs)
        return result

    def cli_overhead_probe(self, specs):
        """The probe command traced (wrappers and -X importtime) minus
        untraced, in pairs whose order alternates; see worker.overhead_probe."""
        spec = specs[joblib.overhead_probe("cli", specs)]
        spans = self.path("probe-spans.jsonl")
        untraced, diffs = [], []
        for k in range(joblib.OVERHEAD_PAIRS):
            took = {}
            for traced in ((True, False) if k % 2 == 0 else (False, True)):
                record, _, _ = self.run_command(spec, traced, spans)
                if record["status"] != "ok":
                    raise SystemExit("overhead probe %s failed: %s" % (spec["id"], record.get("error")))
                took[traced] = record["t"]
            untraced.append(took[False])
            diffs.append(took[True] - took[False])
        os.remove(spans)
        return {"job": spec["id"], "untraced": untraced, "diffs": diffs}

    def run_command(self, spec, traced, spans):
        record = {"id": spec["id"]}
        argv = spec["args"]["argv"]
        counters_path = self.path("cli-counters.json")
        if traced:
            cmd = [self.python, "-X", "importtime", os.path.join(HERE, "clishim.py"),
                   counters_path, spans, spec["id"], "--"] + argv
            if os.path.exists(counters_path):
                os.remove(counters_path)
        else:
            cmd = [self.python, "-m", "mops.cli"] + argv
        out_path, err_path = self.path("cli-stdout.txt"), self.path("cli-stderr.txt")
        deadline = min(spec["deadline_s"], self.remaining())
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=out, stderr=err)
            code, usage = wait_child(proc, deadline)
            elapsed = time.perf_counter() - t0
        record["t"] = elapsed
        if code is None:
            record.update(status="deadline", error="missed %gs deadline" % deadline)
            return record, usage, None
        if code != 0:
            with open(err_path, errors="replace") as handle:
                record.update(status="error", error="exit %d: %s" % (code, handle.read()[-300:]))
            return record, usage, None
        with open(out_path, "rb") as handle:
            stdout = handle.read()
        record["status"] = "ok"
        if "golden" in spec["check"]:
            record["sha256"] = hashlib.sha256(stdout).hexdigest()
        else:
            try:
                parsed = joblib.parse_cli_output(stdout.decode())
            except ValueError as exc:
                record.update(status="error", error="unreadable output: %s" % exc)
                return record, usage, None
            record["floats"] = parsed["values"]
            record["xs"] = parsed["xs"]
        job_counters = None
        if traced:
            with open(err_path) as handle:
                record["import"] = parse_importtime(handle.read())
            with open(counters_path) as handle:
                job_counters = json.load(handle)
        return record, usage, job_counters


# ---------------------------------------------------------------------------
# metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description="mops benchmark: one workload, checked, one JSON line")
    ap.add_argument("--workload", required=True, choices=joblib.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mops", "__init__.py")):
        print("error: run from the root of a mops checkout (no src/mops here)", file=sys.stderr)
        return 2

    units = declared_units()
    bench = Bench(args, root)
    specs = joblib.build(args.workload, args.seed)
    by_id = {spec["id"]: spec for spec in specs}
    checker = Checker(specs)  # oracle values are prepared before any timing
    bench.compile_bytecode()

    passes = bench.run_passes(specs)

    attempted = failed = 0
    failures = {}
    for p in passes:
        for record in p["jobs"]:
            attempted += 1
            spec = by_id[record["id"]]
            ok = record["status"] == "ok" and checker.check(spec, record)
            if not ok:
                failed += 1
                failures.setdefault(record["id"], record.get("error") or "wrong output")

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    q = tail_quantile(len(specs))
    setup = bench.setup

    def job_times(scaled):
        return [j["t"] * (speed.factor(p["loop_times"]) if scaled else 1.0)
                for p in untraced for j in p["jobs"] if j["t"] is not None]

    def timings(scaled):
        """The job timings, rescaled by speed.py or as measured."""
        times = job_times(scaled)
        return {
            "wall_s": statistics.median(
                p["wall"] * (speed.factor(p["loop_times"]) if scaled else 1.0) for p in untraced),
            "job_p50_s": statistics.median(times),
            "job_tail_s": lower_quantile(times, q),
        }

    print("workload %s, seed %d: %d passes (%d traced) of %d jobs, %d job runs, %d failed"
          % (args.workload, args.seed, len(passes), len(traced), len(specs), attempted, failed))
    for job, why in sorted(failures.items()):
        print("  FAILED %s: %s" % (job, why))
    for problem in checker.problems[:20]:
        print("  check: %s" % problem)
    loop_times = [t for p in passes for t in p["loop_times"]]
    print("speed.py loop: median %.4g ms over %d samples (reference %.4g ms)"
          % (1e3 * statistics.median(loop_times), len(loop_times), 1e3 * speed.REF_S))

    if not args.trace:
        metrics = timings(scaled=True)
        metrics.update({
            "setup_s": statistics.median(setup["elapsed"]),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
            "ok_rate": 1.0 - failed / attempted,
            "accuracy_digits": -math.log10(max(checker.max_abs_err, ERR_FLOOR)),
        })
        print("job_tail_s is the p%.0f of %d job times (%d per pass); setup_s the median of %d starts"
              % (100 * q, len(job_times(False)), len(specs), len(setup["elapsed"])))
        print("error_rate %.4g (%d of %d); max_abs_err %.3g over float outputs"
              % (failed / attempted, failed, attempted, checker.max_abs_err))
        print("unscaled: " + json.dumps(timings(scaled=False)))
        result_metrics = with_units(metrics, units["end_to_end"])
    else:
        counters = [p["counters"] for p in traced if "counters" in p]
        if not counters:
            raise SystemExit("no traced pass completed within the run's time limit")
        layer_runs = [layertrace.layer_metrics(c) for c in counters]
        metrics = {name: statistics.median(run[name] for run in layer_runs) for name in layer_runs[0]}
        spawn_s = statistics.median(setup["spawn"])
        if args.workload == "cli":
            splits = [j["import"] for p in traced for j in p["jobs"] if "import" in j]
            import_s = statistics.median(s[0] for s in splits)
            scipy_s = statistics.median(s[1] for s in splits)
            compute_s = statistics.median(t - spawn_s - import_s for t in job_times(False))
        else:
            import_s = statistics.median(s[0] for s in setup["imports"])
            scipy_s = statistics.median(s[1] for s in setup["imports"])
            compute_s = statistics.median(t - spawn_s - s[0] for t, s in zip(setup["elapsed"], setup["imports"]))
        probes = [p["overhead"] for p in traced if "overhead" in p]
        diffs = [d for probe in probes for d in probe["diffs"]]
        base = statistics.median(t for probe in probes for t in probe["untraced"])
        metrics.update({
            "cli.spawn_s": spawn_s,
            "cli.import_s": import_s,
            "cli.import_scipy_s": scipy_s,
            "cli.compute_s": compute_s,
            "trace.overhead_s": statistics.median(diffs),
        })
        print("tracing overhead: %s takes %.4fs more traced than its %.4fs untraced (%+.1f%%), "
              "the median of %d pairs run back to back"
              % (probes[0]["job"], statistics.median(diffs), base, 100 * statistics.median(diffs) / base, len(diffs)))
        dropped = sum(p["spans"]["dropped"] for p in traced if "spans" in p)
        with open(bench.spans) as handle:
            kept = sum(1 for _ in handle)
        print("spans: %d written to %s, %d over the cap dropped" % (kept, bench.spans, dropped))
        if args.workload != "cli":
            print("cli.* describe the set-up probes: bare start, import mops, the rest of set-up")
        result_metrics = with_units(metrics, units["per_layer"])

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
