"""Repeatability: run a workload N times with N seeds and judge the spread.

    python3 perfbench/repeat.py --workload serve-regions --runs 10 [--traced]

Seeds run from 1 to N.  For every end-to-end metric it prints the median,
the first and third quartiles (``statistics.quantiles(values, n=4)``), the
spread (q3 - q1) / median, the bound from BENCHMARK.json and whether the spread
fits within a third of it.  It also prints the share of failed operations
of each run.  With ``--traced`` every seed also runs traced, and the gap
between the traced and the untraced figures is printed as the tracing
overhead.  Runs are sequential, one at a time.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.checks import spread  # noqa: E402
from perfbench.common import ROOT  # noqa: E402


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed} failed:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return {"result": json.loads(lines[-1]),
            "report": json.loads(lines[-2])["report"]}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs, traced = [], []
    for i in range(args.runs):
        seed = 1 + i
        runs.append(_run(args.workload, seed, args.seconds, 0))
        res = runs[-1]["result"]
        print(f"seed {seed}: attempted {res['attempted']} failed {res['failed']} "
              f"correct {res['correct']} wall {runs[-1]['report']['wall_s']:.1f}s",
              flush=True)
        if args.traced:
            traced.append(_run(args.workload, seed, args.seconds, 1))

    shares = {r["result"]["failed"] / r["result"]["attempted"] for r in runs}
    print(f"\n{args.workload}: {args.runs} runs, failed share(s) {sorted(shares)}")
    print(f"{'metric':<18}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}"
          f"{'bound':>7}  fits bound/3")
    ok = True
    for name, bound in bounds.items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med, q1, q3, rel = spread(values)
        fits = rel <= bound / 3
        ok &= fits or name == "setup_s"
        print(f"{name:<18}{med:>12.4g}{q1:>12.4g}{q3:>12.4g}{rel:>9.3f}"
              f"{bound:>7.2f}  {'yes' if fits else 'NO'}")
    if traced:
        print("\ntracing overhead (traced / untraced, median over seeds):")
        for name in bounds:
            if name in ("setup_s", "peak_rss_mb"):
                continue
            ratios = sorted(t["report"]["traced_end_to_end"][name]
                            / r["result"]["metrics"][name]["value"]
                            for r, t in zip(runs, traced))
            print(f"  {name:<18}{ratios[len(ratios) // 2]:.3f}")
    return 0 if ok and len(shares) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
