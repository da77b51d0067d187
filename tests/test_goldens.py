"""Exact benchmark outputs, byte for byte, without a benchmark run.

Every job of the symbolic and numeric workloads with an exact output (the
Jack tables and expansions, the generalized-binomial tables, the
orthogonal-polynomial constructions, the expectations, the conjecture
coefficients, the level density and the series at a scalar-identity
point) is prepared by ``perfbench/jobs.py`` and rendered as the benchmark
renders it, then compared with ``perfbench/golden/<id>.txt``.  Nothing
under ``perfbench/`` is written.
"""

import importlib.util
import os

import pytest

from mops import cache

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
PREFIXES = ("jack-", "gbinomial-4.3.2.1", "hermite-", "hermite2-", "laguerre-3", "jacobi-2.1-n2",
            "level-polynomial-8.5", "expect-", "conjecture-", "ghypergeom-xid")


def _jobs_module():
    spec = importlib.util.spec_from_file_location("perfbench_jobs", os.path.join(BENCH, "jobs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


JOBS = _jobs_module()
SPECS = [
    spec
    for workload in ("symbolic", "numeric")
    for spec in JOBS.build(workload, 0)
    if spec["id"].startswith(PREFIXES)
]


def test_every_named_job_is_covered():
    ids = {spec["id"] for spec in SPECS}
    for prefix in PREFIXES:
        assert any(job_id.startswith(prefix) for job_id in ids), prefix


def test_every_exact_job_is_covered():
    exact = {
        spec["id"]
        for workload in ("symbolic", "numeric")
        for spec in JOBS.build(workload, 0)
        if "golden" in spec["check"]
    }
    assert exact == {spec["id"] for spec in SPECS}


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec["id"])
def test_output_matches_golden(spec):
    with open(os.path.join(BENCH, "golden", spec["check"]["golden"] + ".txt")) as handle:
        golden = handle.read()
    cache.clear_all()
    run, render = JOBS.prepare(spec)
    assert render(run()) == golden
