"""Run the benchmark over several seeds and summarise it as a BENCH file.

    python3 benchmarks/collect.py --seeds 1-10 --out benchmarks/BENCH_0.json

Runs ``run.py`` once per (seed, workload), for every workload of
``BENCHMARK.json`` and its ``run_seconds``, one process at a time, with
the workloads interleaved so that a slow spell of the machine spreads over
all of them, then one traced run per workload on ``--trace-seed``. For each
end-to-end metric it reports the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread: the distance between
the quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return {
        "workload": workload, "seed": seed, "trace": trace, "exit_code": proc.returncode,
        "record": json.loads(lines[-2])["record"], "result": json.loads(lines[-1]),
    }


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values), "q1": q1, "q3": q3,
        "spread": (q3 - q1) / statistics.median(values), "min": min(values),
        "max": max(values), "n": len(values),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,3,5")
    parser.add_argument("--trace-seed", type=int, default=None,
                        help="also make one traced run per workload on this seed")
    parser.add_argument("--out", default=None, help="write the BENCH JSON here")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    runs = []
    for seed in parse_seeds(args.seeds):
        for name in names:
            runs.append(run_once(name, seed, seconds, 0))
            print(f"{name} seed {seed}: {json.dumps(runs[-1]['result'])}", file=sys.stderr)
    if args.trace_seed is not None:
        for name in names:
            runs.append(run_once(name, args.trace_seed, seconds, 1))

    summary: dict = {}
    for name in names:
        plain = [r for r in runs if r["workload"] == name and r["trace"] == 0]
        summary[name] = {
            "all_correct": all(r["result"]["correct"] for r in plain),
            "metrics": {
                m["name"]: {"unit": m["unit"], "bound": m["bound"], **summarize(
                    [r["result"]["metrics"][m["name"]]["value"] for r in plain])}
                for m in spec["end_to_end"]
            },
        }
        traced = [r for r in runs if r["workload"] == name and r["trace"] == 1]
        if traced:
            summary[name]["per_layer"] = traced[0]["result"]["metrics"]
    for name, s in summary.items():
        for metric, m in s["metrics"].items():
            flag = "" if metric == "setup_s" or m["spread"] <= m["bound"] / 3 else "  <-- spread"
            print(f"{name:16s} {metric:24s} median {m['median']:.6g} {m['unit']:5s} "
                  f"spread {m['spread']:.3f} (bound {m['bound']}){flag}")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "environment": runs[0]["record"]["environment"],
            "seconds": seconds,
            "summary": summary,
            "runs": runs,
        }, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
