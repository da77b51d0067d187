"""Runs one pass of an in-process workload (symbolic or numeric).

One client, one job at a time, no extra threads.  The process imports
mops from ``src/``, builds every job's inputs, runs each job of the list
once, in the order the seed gives this pass, and writes per-job times and
outputs, to be checked by ``run.py``, as JSON.  Every pass runs in a fresh
process, so that no pass inherits the heap a previous pass left behind.

With ``--setup-only`` it stops after building the inputs and prints
``ready``: ``run.py`` times fresh interpreters up to that line.

With ``--trace 1`` the pass runs with the layer wrappers of
``layertrace.py`` installed; then one job, ``jobs.overhead_probe``, runs
with and without them in turn, to measure what the wrappers cost.

Before each job the worker times the loop of ``speed.py``, so that
``run.py`` can rescale the pass to the reference machine's speed.

Memo tables: ``symbolic`` clears them before each job (each job is a
fresh question, as in one CLI call); ``numeric`` clears them once per
pass and keeps them across the pass (one process drawing curves).
"""

import argparse
import gc
import hashlib
import json
import resource
import signal
import sys
import time

import jobs as joblib
import speed


class JobDeadline(BaseException):
    """Raised by the interval timer when a job overruns its deadline."""


def _on_alarm(signum, frame):
    raise JobDeadline()


def run_pass(workload, seed, index, specs, prepared, cache, tracer):
    order = joblib.pass_order(workload, seed, index, specs)
    if workload == "numeric":
        cache.clear_all()
    records = []
    loop_times = []
    t_pass = time.perf_counter()
    for i in order:
        spec = specs[i]
        run, render = prepared[i]
        record = {"id": spec["id"]}
        records.append(record)
        if workload == "symbolic":
            cache.clear_all()
        # start every job from the same heap: garbage left by the job before
        # would otherwise be collected, and timed, inside this one
        gc.collect()
        loop_times.append(speed.sample())
        if tracer is not None:
            tracer.job = spec["id"]
        signal.setitimer(signal.ITIMER_REAL, spec["deadline_s"])
        t0 = time.perf_counter()
        try:
            result = run()
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        except JobDeadline:
            record.update(status="deadline", t=time.perf_counter() - t0,
                          error="missed %gs deadline" % spec["deadline_s"])
            cache.clear_all()
            continue
        except Exception as exc:  # a failed job is counted, the run goes on
            signal.setitimer(signal.ITIMER_REAL, 0)
            record.update(status="error", t=time.perf_counter() - t0,
                          error="%s: %s" % (type(exc).__name__, exc))
            cache.clear_all()
            continue
        if tracer is not None:
            tracer.note_job_end()
        out = render(result)
        record.update(status="ok", t=elapsed)
        if isinstance(out, str):
            record["sha256"] = hashlib.sha256(out.encode()).hexdigest()
        else:
            record["floats"] = out
    # a pass's wall time is the time its jobs took; checking outputs and the
    # collections between jobs are the harness's work
    return {"wall": sum(r["t"] for r in records), "elapsed": time.perf_counter() - t_pass, "jobs": records,
            "loop_times": loop_times}


def overhead_probe(workload, specs, prepared, cache, mops):
    """The probe job's time with the wrappers minus its time without them.

    Both sides run in this process from cleared memo tables, in pairs
    whose order alternates, so that neither a drift of the machine's speed
    nor running first favours one side.
    """
    from layertrace import Tracer

    i = joblib.overhead_probe(workload, specs)
    run = prepared[i][0]
    untraced, diffs = [], []
    for k in range(joblib.OVERHEAD_PAIRS):
        took = {}
        for traced in ((True, False) if k % 2 == 0 else (False, True)):
            tracer = Tracer(mops)
            cache.clear_all()
            gc.collect()
            if traced:
                tracer.install()
            try:
                t0 = time.perf_counter()
                run()
                took[traced] = time.perf_counter() - t0
            finally:
                tracer.uninstall()
        untraced.append(took[False])
        diffs.append(took[True] - took[False])
    return {"job": specs[i]["id"], "untraced": untraced, "diffs": diffs}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=joblib.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    import mops
    from mops import cache

    specs = joblib.build(args.workload, args.seed)
    # cli jobs run as fresh processes from run.py; their inputs are argv lists
    prepared = [joblib.prepare(spec) for spec in specs] if args.workload != "cli" else []
    if args.setup_only or args.workload == "cli":
        print("ready", flush=True)
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer(mops)
        tracer.install()
    try:
        result = run_pass(args.workload, args.seed, args.pass_index, specs, prepared, cache, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["overhead"] = overhead_probe(args.workload, specs, prepared, cache, mops)
        result["counters"] = tracer.counters()
        if args.spans:
            tracer.write_spans(args.spans)
            result["spans"] = {"kept": len(tracer.spans), "dropped": tracer.dropped}
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
