"""Self-tests of the benchmark: span arithmetic, wrapper coverage and the gates.

    python3 bench/selftest.py

About a minute: the coverage tests run traced passes of the real workloads.
"""

from __future__ import annotations

import unittest

import numpy as np

import run
import workloads
from tracer import _covered, layer_metrics


def nb_thinning_path(rng, n, theta, p, rho):
    """Exact NB thinning chain drawn with numpy alone (beta-binomial thinning)."""
    x = np.empty(n, dtype=np.int64)
    x[0] = rng.negative_binomial(theta, p)
    for i in range(1, n):
        kept = rng.binomial(x[i - 1], rng.beta(theta * rho, theta * (1.0 - rho))) if x[i - 1] else 0
        x[i] = kept + rng.negative_binomial(theta * (1.0 - rho), p)
    return x


class WorkloadNames(unittest.TestCase):
    def test_runner_names_every_workload(self):
        self.assertEqual(set(run.WORKLOAD_NAMES), set(workloads.WORKLOADS))


class SpanArithmetic(unittest.TestCase):
    def test_self_time_on_a_synthetic_tree(self):
        # a[0,10] > b[1,4] (0.5 s in timed leaves) > c[2,3];  a > b[5,9] > a[6,7]
        spans = [
            ("a", 0.0, 10.0, None, 0.0),
            ("b", 1.0, 4.0, 0, 0.5),
            ("c", 2.0, 3.0, 1, 0.0),
            ("b", 5.0, 9.0, 0, 0.0),
            ("a", 6.0, 7.0, 3, 0.0),
        ]
        got = layer_metrics(spans, {"leaf": 7}, {"leaf": 0.5})
        self.assertEqual(got["a"], {"s": 10.0, "self_s": 3.0 + 1.0, "calls": 2})
        self.assertEqual(got["b"], {"s": 7.0, "self_s": 1.5 + 3.0, "calls": 2})
        self.assertEqual(got["c"], {"s": 1.0, "self_s": 1.0, "calls": 1})
        self.assertEqual(got["leaf"], {"s": 0.5, "self_s": 0.5, "calls": 7})

    def test_covered_length_merges_overlaps_and_clips(self):
        self.assertEqual(_covered(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)]), 6.0)
        self.assertEqual(_covered(0.0, 10.0, []), 0.0)


class WrapperCoverage(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.set_environment()
        run.OUT_DIR.mkdir(exist_ok=True)

    def traced(self, name):
        passes, metrics, _ = run.run_traced(name, 1, 0)
        self.assertTrue(all(p.failed == 0 for p in passes), name)
        return {k: v for k, (v, _) in metrics.items()}

    def test_verify_exact_reaches_the_series_engine_and_not_the_kernels(self):
        got = self.traced("verify-exact")
        self.assertEqual(got["series.ts_log.calls"], 4)
        self.assertEqual(got["ctmc.transition_uniformized.calls"], 0)
        self.assertGreater(got["verify.chain_joint_pmf.calls"], 0)

    def test_simulate_paths_bypasses_the_series_engine(self):
        got = self.traced("simulate-paths")
        self.assertEqual(got["series.ts_log.calls"], 0)
        self.assertEqual(got["idlaw.id_sample.calls"], 1000 * 1001 // 2 + 10**5)
        self.assertEqual(got["discrete.branching_step_nb.calls"], 10**5 - 1)

    def test_call_counts_repeat_exactly_and_wrappers_come_off(self):
        import misti

        first = self.traced("library-api")
        second = self.traced("library-api")
        counts = {k: v for k, v in first.items() if k.endswith(".calls")}
        self.assertEqual(counts, {k: second[k] for k in counts})
        self.assertGreater(counts["ctmc.transition_uniformized.calls"], 0)
        self.assertIs(misti.verify.ts_log, misti.series.ts_log)
        self.assertFalse(hasattr(misti.series.ts_log, "__wrapped__"))
        self.assertFalse(hasattr(misti.tables.JointPMF.__post_init__, "__wrapped__"))


class StatisticalGate(unittest.TestCase):
    def test_accepts_exact_nb_draws(self):
        for seed in range(20):
            draws = np.random.default_rng(seed).negative_binomial(2.0, 0.5, size=10**4)
            ok, note = workloads.path_gate_check(draws, 2.0, 4.0, 0.0)
            self.assertTrue(ok, f"seed {seed}: {note}")

    def test_accepts_exact_nb_thinning_paths(self):
        for seed in range(5):
            path = nb_thinning_path(np.random.default_rng(seed), 10**4, 2.0, 0.5, 0.6)
            ok, note = workloads.path_gate_check(path, 2.0, 4.0, 0.6)
            self.assertTrue(ok, f"seed {seed}: {note}")

    def test_rejects_a_marginal_whose_mean_is_20_percent_off(self):
        for seed in range(10):
            draws = np.random.default_rng(seed).negative_binomial(2.4, 0.5, size=10**4)
            ok, note = workloads.path_gate_check(draws, 2.0, 4.0, 0.0)
            self.assertFalse(ok, f"seed {seed}: {note}")

    def test_rejects_a_path_that_lost_its_autocorrelation(self):
        draws = np.random.default_rng(0).negative_binomial(2.0, 0.5, size=10**4)
        ok, note = workloads.path_gate_check(draws, 2.0, 4.0, 0.6)
        self.assertFalse(ok, note)


class ReferenceGate(unittest.TestCase):
    def test_summary_moves_when_one_entry_moves(self):
        table = np.random.default_rng(0).random((11, 11, 11))
        want = workloads.summarize(table)
        nudged = table.copy()
        nudged[3, 7, 1] += 1e-8
        self.assertIsNotNone(workloads.compare(workloads.summarize(nudged), want))
        nudged[3, 7, 1] = table[3, 7, 1] + 1e-14
        self.assertIsNone(workloads.compare(workloads.summarize(nudged), want))

    def test_report_fields_use_the_check_tolerance(self):
        want = {"violation": 0.5, "tolerance": 1e-9, "pass": False}
        self.assertIsNone(workloads.compare({**want, "violation": 0.5 + 1e-10}, want))
        self.assertIsNotNone(workloads.compare({**want, "violation": 0.5 + 1e-8}, want))
        self.assertIsNotNone(workloads.compare({**want, "pass": True}, want))


if __name__ == "__main__":
    unittest.main()
