"""Fast self-test of the benchmark harness (a few seconds).

Usage, from the root of the repository:

    python3 perfbench/selftest.py

It checks the oracles against known closed forms, that the metrics the
benchmark computes are those ``BENCHMARK.json`` declares, the import-time
parser, the seeded inputs, the speed scaling, and the tracer's counts on
small jobs.
"""

import json
import math
import os
import sys
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import mpmath as mp  # noqa: E402

import jobs as joblib  # noqa: E402
import layertrace  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402


class OracleTest(unittest.TestCase):
    def test_single_eigenvalue_cdfs(self):
        # one eigenvalue with weight e^(-t/2): P[x_1 < x] = 1 - e^(-x/2)
        for x in (0.5, 3.0, 9.0):
            self.assertAlmostEqual(oracles.cdf_beta2(0, 1, x), 1 - math.exp(-x / 2), places=14)
            self.assertAlmostEqual(oracles.cdf_m1(0, x), 1 - math.exp(-x / 2), places=14)

    def test_cdfs_are_distributions(self):
        for cdf in (lambda x: oracles.cdf_beta2(1, 2, x), lambda x: oracles.cdf_beta1_m3(Fraction(1, 2), x)):
            values = [cdf(x) for x in (1.0, 3.0, 6.0, 12.0)]
            self.assertEqual(values, sorted(values))
            self.assertGreater(values[0], 0.0)
            self.assertAlmostEqual(cdf(200.0), 1.0, places=12)

    def test_smallest_density_has_mass_one(self):
        with mp.workdps(15):
            mass = mp.quad(lambda x: oracles.smallest_density_beta2(3, 3, x), [0, 4, 12, 40])
        self.assertAlmostEqual(float(mass), 1.0, places=10)
        # one eigenvalue: the weight itself, x^p e^(-x/2) / (2^(p+1) p!)
        x = 2.5
        want = x**3 * math.exp(-x / 2) / (2**4 * 6)
        self.assertAlmostEqual(oracles.smallest_density_beta2(3, 1, x), want, places=14)

    def test_level_density(self):
        self.assertEqual(oracles.level_density_coeffs(2, 1), [Fraction(1)])
        # GUE, n = 2: (1 + x^2) / 2 times the Gaussian
        self.assertEqual(oracles.level_density_coeffs(2, 2), [Fraction(1, 2), 0, Fraction(1, 2)])
        coeffs = oracles.level_density_coeffs(4, 3)
        with mp.workdps(15):
            mass = mp.quad(lambda x: oracles.level_density(coeffs, x), [-mp.inf, 0, mp.inf])
        self.assertAlmostEqual(float(mass), 1.0, places=12)

    def test_schur_and_series(self):
        x, y, z = 0.5, 0.25, 0.125
        self.assertAlmostEqual(float(oracles.schur((2, 1), [x, y, z])), (x + y) * (x + z) * (y + z), places=15)
        # C_(2,1) = 3!/3 * s_(2,1) at alpha = 1
        self.assertAlmostEqual(oracles.jack_c_alpha1((2, 1), [x, y, z]), 2 * (x + y) * (x + z) * (y + z), places=15)
        # one variable: the classical 1F1 series
        got = oracles.hypergeom_alpha1([Fraction(1, 2)], [Fraction(3, 2)], [0.3], 40)
        self.assertAlmostEqual(got, float(mp.hyp1f1(0.5, 1.5, 0.3)), places=14)
        self.assertEqual(oracles.exp_partial_sum(3), Fraction(8, 3))

    def test_kostka(self):
        self.assertEqual(oracles.kostka_row((2, 1), 3), {(3,): 0, (2, 1): 1, (1, 1, 1): 2})


class HarnessTest(unittest.TestCase):
    def test_metrics_take_declared_names_and_units(self):
        units = run.declared_units()
        import mops

        computed = layertrace.layer_metrics(layertrace.Tracer(mops).counters())
        # the tracer's metrics are all declared; run.py adds cli.* and trace.*
        self.assertLessEqual(set(computed), set(units["per_layer"]))
        self.assertEqual({name.split(".")[0] for name in set(units["per_layer"]) - set(computed)}, {"cli", "trace"})
        with self.assertRaises(SystemExit):
            run.with_units(computed, units["per_layer"])
        got = run.with_units(dict.fromkeys(units["end_to_end"], 1.0), units["end_to_end"])
        self.assertEqual(got["setup_s"], {"value": 1.0, "unit": "s"})
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            workloads = [w["name"] for w in json.load(handle)["workloads"]]
        self.assertEqual(workloads, list(joblib.WORKLOADS))

    def test_speed_factor_and_overhead_probes(self):
        self.assertEqual(speed.factor([speed.REF_S, 2 * speed.REF_S, speed.REF_S]), 1.0)
        self.assertGreater(speed.sample(), 0.0)
        for workload in joblib.WORKLOADS:
            specs = joblib.build(workload, 5)
            probe = specs[joblib.overhead_probe(workload, specs)]
            self.assertTrue(probe["id"].startswith(joblib.OVERHEAD_PROBES[workload]))

    def test_goldens_exist(self):
        for workload in joblib.WORKLOADS:
            for spec in joblib.build(workload, 0):
                if "golden" in spec["check"]:
                    path = os.path.join(HERE, "golden", spec["check"]["golden"] + ".txt")
                    self.assertTrue(os.path.isfile(path), path)

    def test_seeded_inputs(self):
        for workload in joblib.WORKLOADS:
            self.assertEqual(joblib.build(workload, 3), joblib.build(workload, 3))
            self.assertGreaterEqual(len(joblib.build(workload, 3)), 11)
        self.assertNotEqual(joblib.build("numeric", 3), joblib.build("numeric", 4))
        self.assertEqual(joblib.build("symbolic", 3), joblib.build("symbolic", 4))
        specs = joblib.build("symbolic", 3)
        self.assertNotEqual(joblib.pass_order("symbolic", 3, 0, specs), joblib.pass_order("symbolic", 4, 0, specs))
        numeric = joblib.build("numeric", 3)
        order = [numeric[i] for i in joblib.pass_order("numeric", 3, 0, numeric)]
        self.assertEqual([s["id"][:6] for s in order[:16]], ["cdf-a1"] * 8 + ["cdf-a2"] * 8)
        xs = [s["args"]["x"] for s in order[:8]]
        self.assertEqual(xs, sorted(xs))

    def test_tail_quantile_leaves_ten_samples(self):
        for jobs_per_pass in (14, 22, 23):
            q = run.tail_quantile(jobs_per_pass)
            for passes in (2, 3, 5):
                values = list(range(passes * jobs_per_pass))
                beyond = sum(1 for v in values if v > run.lower_quantile(values, q))
                self.assertGreaterEqual(beyond, 10)

    def test_parse_importtime(self):
        text = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |   site",
            "import time:       300 |        300 |         numpy",
            "import time:       200 |        500 |       scipy",
            "import time:       400 |        400 |       scipy.integrate",
            "import time:        50 |        950 |     mops.hypergeom",
            "import time:        50 |       1000 |   mops",
        ])
        self.assertEqual(run.parse_importtime(text), (1000 / 1e6, 900 / 1e6))


class TracerTest(unittest.TestCase):
    def setUp(self):
        import mops

        self.mops = mops
        mops.cache.clear_all()
        self.tracer = layertrace.Tracer(mops)

    def traced(self, fn):
        originals = (self.mops.jack.jack_expand, self.mops.hypergeom.eval_numeric)
        self.tracer.install()
        try:
            fn()
        finally:
            self.tracer.uninstall()
        self.assertEqual((self.mops.jack.jack_expand, self.mops.hypergeom.eval_numeric), originals)
        return layertrace.layer_metrics(self.tracer.counters())

    def test_symbolic_table_counts(self):
        from mops import jack
        from mops.rational import ALPHA

        got = self.traced(lambda: [jack.jack_expand(ALPHA, (2, 1), "C") for _ in range(2)])
        self.assertEqual(got["jack.tables_built"], 1)
        self.assertEqual(got["jack.table_hit_ratio"], 0.5)
        self.assertEqual(got["partitions.enumerated"], 3)  # the partitions of 3, once
        self.assertGreater(got["rational.canon_calls"], 0)
        self.assertGreater(got["rational.ops"], 0)
        self.assertEqual(got["hypergeom.calls"], 0)

    def test_series_counts(self):
        from mops import hypergeom

        got = self.traced(lambda: hypergeom.largest_eig_cdf(1, 1, 2, 2.0))
        self.assertEqual(got["rational.canon_calls"], 0)
        self.assertEqual(got["hypergeom.calls"], 1)
        self.assertGreater(got["hypergeom.terms"], 0)
        self.assertGreater(got["partitions.enumerated"], got["hypergeom.terms"])
        self.assertAlmostEqual(
            got["hypergeom.term_yield_ratio"], got["hypergeom.terms"] / got["partitions.enumerated"])
        self.assertTrue(all(got[name] >= 0 for name in got if name.endswith("self_s")))

    def test_from_import_binding_is_wrapped(self):
        from mops import hypergeom

        arg = ("vec", [0.3, 0.2])
        got = self.traced(lambda: hypergeom.ghypergeom(Fraction(1), [], [], arg, limit=3))
        # eval_numeric is bound in hypergeom by a from-import: one call per term
        self.assertEqual(got["symfun.calls"], got["hypergeom.terms"])


if __name__ == "__main__":
    unittest.main()
