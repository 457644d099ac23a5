"""Self-test of the benchmark: tiny runs, and proof that the checks bite.

    python3 perfbench/selftest.py

Each workload runs at a tiny size and must finish with no failed
operation.  Then the program's outputs are corrupted on the way into the
benchmark — a decoded array pushed past the bound, a region with the wrong
shape header, a read after a replace that returns the replaced field — and
each must be counted as a failed, wrong operation.  The file is not named
``test_*.py``, so the repository's own test run does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import checks, run as bench  # noqa: E402
from perfbench.common import ROOT, import_program, make_workdir, remove_workdir  # noqa: E402
from perfbench.node import Client, Response  # noqa: E402

import_program()


def tiny(workload: str, trace: bool = False, seed: int = 3) -> dict:
    return bench.run(workload, seed, 0.5, trace, tiny=True)


class TinyRuns(unittest.TestCase):
    def test_every_workload_passes(self):
        for workload in bench.WORKLOADS:
            with self.subTest(workload=workload):
                result = tiny(workload)["result"]
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0, result)
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(set(result["metrics"]), set(bench.E2E_UNITS))
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_metric_lists_match_benchmark_json(self):
        from perfbench.layers import METRICS

        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         bench.E2E_UNITS)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         METRICS)

    def test_traced_run_reports_every_layer(self):
        from perfbench.layers import METRICS

        for workload in ("serve-regions", "ingest-read"):
            with self.subTest(workload=workload):
                out = tiny(workload, trace=True)
                metrics = out["result"]["metrics"]
                self.assertEqual(list(metrics), [name for name, _, _ in METRICS])
                self.assertGreater(metrics["api.decode_tile_s"]["value"], 0)
                self.assertGreater(metrics["store.app.hot_handle_s"]["value"], 0)
                self.assertEqual(metrics["store.cache.hot_misses"]["value"], 0)

    def test_inputs_and_models_repeat_across_processes(self):
        code = ("import sys; sys.path.insert(0, %r); "
                "from perfbench.common import import_program; import_program(); "
                "from perfbench import codec_sweep; "
                "d, m = codec_sweep.setup(5, True); "
                "print(sorted((k, v.model_fingerprint(), float(d[k].sum())) "
                "for k, v in m.items()))" % str(ROOT))
        outs = {subprocess.run([sys.executable, "-c", code], capture_output=True,
                               text=True, check=True).stdout for _ in range(2)}
        self.assertEqual(len(outs), 1)


class ChecksBite(unittest.TestCase):
    def test_perturbed_decode_is_caught(self):
        import repro

        real = repro.decompress

        def perturbed(blob, **kwargs):
            out = np.array(real(blob, **kwargs), dtype=np.float64)
            out.flat[0] += 0.5 * float(np.ptp(out))  # far past any Rel <= 1e-2
            return out

        with mock.patch.object(repro, "decompress", perturbed):
            result = tiny("codec-sweep")["result"]
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_bound_check_has_no_tolerance(self):
        original = np.full(11, 0.5)
        edge = original.copy()
        edge[7] += 0.25  # exactly representable: error == bound
        checks.check_decoded(original, edge, 0.25, "at the bound")
        edge[7] = np.nextafter(edge[7], 2.0)
        with self.assertRaises(checks.CheckFailed):
            checks.check_decoded(original, edge, 0.25, "one ulp past")

    def test_wrong_shape_region_is_caught(self):
        real = Client.get

        def wrong_shape(self, path, kind):
            resp = real(self, path, kind)
            if kind == "hot" and resp.status == 200:
                dims = resp.headers["x-repro-shape"].split(",")
                dims[0], dims[-1] = dims[-1], str(int(dims[0]) + 1)
                resp.headers["x-repro-shape"] = ",".join(dims)
            return resp

        with mock.patch.object(Client, "get", wrong_shape):
            result = tiny("serve-regions")["result"]
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_stale_generation_read_is_caught(self):
        """After a replace, answer the cold read with the response the
        first generation gave, as a stale cache would."""
        real = Client.get
        first = {}

        def stale(self, path, kind):
            resp = real(self, path, kind)
            if kind == "cold" and resp.status == 200:
                if resp.headers["x-repro-generation"] == "1":
                    first["resp"] = resp
                elif "resp" in first:
                    old = first["resp"]
                    return Response(200, dict(old.headers), old.body, resp.seconds)
            return resp

        with mock.patch.object(Client, "get", stale):
            result = tiny("ingest-read")["result"]
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_region_matching_the_replaced_field_is_caught(self):
        old = np.random.default_rng(0).standard_normal((4, 4))
        with self.assertRaises(checks.CheckFailed):
            checks.check_not_stale(old, old + 1e-6, 1e-3, "read after replace")
        checks.check_not_stale(old, old + 1.0, 1e-3, "fresh read")

    def test_wrong_generation_header_is_caught(self):
        with self.assertRaises(checks.CheckFailed):
            checks.check_generation({"x-repro-generation": "1"}, 2, "read")


class NoProgram(unittest.TestCase):
    def test_exits_nonzero_without_a_result(self):
        work = make_workdir("noprog-")
        try:
            shutil.copytree(ROOT / "perfbench", work / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", work / "BENCHMARK.json")
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "codec-sweep",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=str(work), capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            remove_workdir(work)


if __name__ == "__main__":
    unittest.main()
