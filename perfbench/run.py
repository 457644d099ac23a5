"""The repository benchmark's single entry point.

    python3 perfbench/run.py --workload codec-sweep|serve-regions|ingest-read
                             --seed N --seconds S --trace 0|1

Runs from the root of a checkout.  The workload's inputs come from ``--seed``;
the program (``src/repro``) receives only those inputs.  Output: one JSON
line ``{"report": ...}`` with everything measured (environment, samples,
tails, per-codec figures, the self-time table of a traced run), then, as the
last line, ``{"correct", "attempted", "failed", "metrics"}`` with the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
Exits non-zero, printing no result, when there is no program to measure.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.common import (ROOT, ProgramMissing, environment, import_program,  # noqa: E402
                              pin_to_one_cpu, single_threaded_blas)

#: End-to-end metrics: name -> unit (every workload reports each of them).
E2E_UNITS = {
    "setup_s": "s",
    "compress_mbps": "MB/s",
    "decompress_mbps": "MB/s",
    "ratio": "x",
    "psnr_db": "dB",
    "read_rps": "1/s",
    "hot_read_p50_ms": "ms",
    "cold_read_p50_ms": "ms",
}

WORKLOADS = ("codec-sweep", "serve-regions", "ingest-read")

#: The run length BENCHMARK.json gives; ``--seconds`` defaults to it.
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def _workload(name: str):
    if name == "codec-sweep":
        from perfbench import codec_sweep as module
    elif name == "serve-regions":
        from perfbench import serve_regions as module
    else:
        from perfbench import ingest_read as module
    return module


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    """Run one workload; returns the result object and the report."""
    tracer = None
    if trace:
        from perfbench.tracing import Tracer
        tracer = Tracer().install()
    try:
        out = _workload(workload).run(seed, seconds, tiny, tracer=tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    tally = out["tally"]
    report = {"workload": workload, "seed": seed, "seconds": seconds,
              "tiny": tiny, "environment": environment(), **out["report"],
              "failures": tally.messages}
    if trace:
        from perfbench import layers
        from perfbench.tracing import per_span_cost

        cost = per_span_cost()
        metrics, table = layers.compute(tracer.spans, out["server_spans"],
                                        out["client_log"], out["window"],
                                        out["evictions"], cost)
        units = {name: unit for name, unit, _ in layers.METRICS}
        report["traced_end_to_end"] = out["e2e"]
        report["span_cost_s"] = cost
        report["self_times"] = {k: table[k] for k in sorted(table)}
    else:
        metrics, units = out["e2e"], E2E_UNITS
        if set(metrics) != set(E2E_UNITS):
            raise RuntimeError(f"{workload} reported {sorted(metrics)}")
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }
    return {"result": result, "report": report}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM unwind normally, so that every node started is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    single_threaded_blas()
    pin_to_one_cpu()
    try:
        import_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), tiny=False)
    out["report"]["wall_s"] = time.perf_counter() - t0
    print(json.dumps({"report": out["report"]}), flush=True)
    print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
