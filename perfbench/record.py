"""Run the benchmark over several seeds and record a trajectory point.

    python3 perfbench/record.py --seeds 1-10 --seconds 40 --out perfbench/results.json

For each workload it runs the untraced benchmark once per seed, then one
traced run on the development seed, and writes the median, quartiles and
spread (quartile distance over median) of every end-to-end metric and of the
raw host medians, the output digests per simulation seed, the per-layer
split and the host description. Run it from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import DEV_SEED, END_TO_END, HELD_OUT_SEED, WORKLOADS, benchmark  # noqa: E402


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    res = benchmark(workload, seed, seconds, trace)
    if res is None:
        raise RuntimeError(f"{workload} seed {seed}: no measurement")
    return res


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10", help="first-last workload seeds")
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--out", type=Path, help="write the results as JSON here")
    args = p.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(first, last + 1))

    import numpy

    report = {
        "host": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
        },
        "seconds": args.seconds,
        "seeds": seeds,
        "dev_seed": DEV_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "workloads": {},
    }
    for wl in WORKLOADS:
        runs = []
        for seed in seeds:
            res = run_once(wl, seed, args.seconds, False)
            runs.append(res)
            print(f"{wl} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  + " ".join(f"{m}={v:.5g}" for m, (v, _) in res["metrics"].items()), flush=True)
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
            "raw_host_medians": {},
            "output_digests": {s: d for r in runs for s, d in r["digests"].items()},
        }
        for m, (unit, kind, _) in END_TO_END.items():
            s = summarize([r["metrics"][m][0] for r in runs])
            entry["end_to_end"][m] = {"unit": unit, "time": kind, **s}
            print(f"  {m}: median {s['median']:.5g} {unit}, quartiles {s['q1']:.5g} .. "
                  f"{s['q3']:.5g}, spread {s['spread']:.3f}", flush=True)
        for m in runs[0]["raw"]:
            s = summarize([r["raw"][m] for r in runs])
            entry["raw_host_medians"][m] = s
            print(f"  raw {m}: median {s['median']:.5g}, spread {s['spread']:.3f}", flush=True)
        traced = run_once(wl, DEV_SEED, args.seconds, True)
        entry["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in traced["metrics"].items()}
        report["workloads"][wl] = entry
        if args.out:  # after every workload, so an interrupted run keeps what it measured
            args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
