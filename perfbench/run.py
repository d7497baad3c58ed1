"""The ttl-lab benchmark: one workload, measured for a fixed host time.

    python3 perfbench/run.py --workload desk-poisson --seed 1 --seconds 40 --trace 0

Run it from the repository root. Each measurement is a fresh process
(perfbench/worker.py) that runs one ttl_lab cell once through the public API,
so set-up time and peak RSS are those of a process that ran the workload
alone. Processes run one at a time, and new ones start until --seconds of
host time are used.

--trace 0 reports the end-to-end metrics: host-time medians over all
processes, scaled to the reference speed (see REFERENCE_NUMPY_IMPORT_S), and
the simulated metrics averaged over the workload's seeds. --trace 1
alternates untraced and traced processes on the first seed and reports the
per-layer split from the traced ones (see tracer.py), with the tracing
overhead.

Every process checks its own CSV artifacts (worker.check_outputs) and reports
an output digest; all processes of one seed must agree on it, traced or not.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Exit status is 0 when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

# The whole invocation must end within 180 s; stop starting processes before.
HARD_LIMIT_S = 150.0
# Workload seed n runs simulation seeds n*SEED_STRIDE .. n*SEED_STRIDE + seeds - 1.
SEED_STRIDE = 16
# Claims are developed on DEV_SEED and must also hold on HELD_OUT_SEED.
DEV_SEED = 1
HELD_OUT_SEED = 97

# On a shared host the same process runs 1.3x to 1.6x slower for minutes at a
# time, and `import numpy`, which every worker does before anything else,
# slows by the same factor. Host times are therefore reported at a reference
# speed: multiplied by REFERENCE_NUMPY_IMPORT_S over the run's median numpy
# import time. The constant is that import's time on an idle 2-core Xeon VM,
# so on such a host the scaled and raw values agree.
REFERENCE_NUMPY_IMPORT_S = 0.080


@dataclass(frozen=True)
class Workload:
    preset: str
    overrides: dict
    seeds: int  # simulation seeds per invocation; simulated metrics average over them


# Why each workload was chosen is in BENCHMARK.json and NOTES.md. The seed
# counts keep the spread of the seed-averaged simulated metrics under a third
# of their bounds; durations keep each process to a few host seconds.
WORKLOADS = {
    "desk-poisson": Workload(
        "desk",
        {"workload.write_fraction": "0.1", "estimator.kind": "poisson"},
        seeds=4,
    ),
    "desk-naf-dei": Workload(
        "desk",
        {"workload.write_fraction": "0.1", "estimator.kind": "naf-dei", "workload.duration": "60"},
        seeds=6,
    ),
    "paper-w30-poisson": Workload(
        "paper",
        {"workload.write_fraction": "0.3", "estimator.kind": "poisson", "workload.duration": "60"},
        seeds=2,
    ),
}

# name -> (unit, host or simulated, exponent of the speed scale)
END_TO_END = {
    "wall_s": ("s", "host", 1),
    "sim_ops_per_s": ("1/s", "host", -1),
    "setup_s": ("s", "host", 1),
    "peak_rss_mb": ("MB", "host", 0),
    "hit_rate": ("ratio", "simulated", 0),
    "invalidation_rate": ("ratio", "simulated", 0),
    "truncated_rmse": ("s", "simulated", 0),
}
HOST_METRICS = [m for m, (_, kind, _) in END_TO_END.items() if kind == "host"]
SIM_METRICS = [m for m, (_, kind, _) in END_TO_END.items() if kind == "simulated"]


def run_worker(wl: Workload, seed: int, trace: bool, out_dir: Path, timeout: float) -> dict:
    """One measurement process; returns its result, or {"error": ...}."""
    spec = {
        "src": str(ROOT / "src"),
        "preset": wl.preset,
        "overrides": wl.overrides,
        "seed": seed,
        "out_dir": str(out_dir),
        "trace": trace,
    }
    spec["t_spawn"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            capture_output=True, text=True, timeout=timeout, cwd=ROOT,
            env=dict(os.environ, PYTHONHASHSEED="0"),
        )
    except subprocess.TimeoutExpired:
        return {"seed": seed, "trace": trace, "error": f"timed out after {timeout:.0f} s"}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"seed": seed, "trace": trace, "error": f"exit {proc.returncode}: {tail[0]}"}
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    values = [res[m] for m in HOST_METRICS] + list(res["sim"].values())
    if res["problems"]:
        res["error"] = "output check: " + "; ".join(res["problems"])
    elif not all(math.isfinite(v) for v in values):
        res["error"] = "non-finite metric"
    return res


def mark_digest_disagreements(results: list[dict]) -> None:
    """Every process of one seed must write the same artifacts."""
    by_seed: dict[int, list[dict]] = {}
    for r in results:
        if "output_digest" in r:
            by_seed.setdefault(r["seed"], []).append(r)
    for seed, rs in by_seed.items():
        counts = Counter(r["output_digest"] for r in rs).most_common()
        agreed = counts[0][0] if len(counts) == 1 or counts[0][1] > counts[1][1] else None
        for r in rs:
            if r["output_digest"] != agreed and "error" not in r:
                r["error"] = f"seed {seed}: output digest {r['output_digest']} disagrees"


def measure(wl: Workload, seeds: list[int], trace: bool, seconds: float) -> list[dict]:
    """Start processes one at a time until the time budget is spent.

    Untraced: cycle through the seeds, each at least twice. Traced: alternate
    untraced and traced processes on the first seed, at least one pair.
    """
    if trace:
        plan = [(seeds[0], False), (seeds[0], True)]
    else:
        plan = [(s, False) for s in seeds]
    minimum = len(plan) if trace else 2 * len(plan)
    start = time.monotonic()
    results: list[dict] = []
    took: list[float] = []
    i = 0
    while True:
        elapsed = time.monotonic() - start
        if i >= minimum:
            # Start another process only if one like it fits in the budget.
            if elapsed + max(took[-len(plan):]) > seconds or elapsed > HARD_LIMIT_S:
                break
        seed, traced = plan[i % len(plan)]
        t0 = time.monotonic()
        out_dir = WORK / f"{seed}-{i}"
        results.append(run_worker(wl, seed, traced, out_dir, max(10.0, 170.0 - elapsed)))
        took.append(time.monotonic() - t0)
        i += 1
    mark_digest_disagreements(results)
    return results


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(pool: list[dict], seeds: list[int]) -> tuple[dict[str, float], dict[str, float]]:
    """(metrics, raw host medians). Host metrics are scaled to the reference speed."""
    raw = {m: statistics.median(r[m] for r in pool) for m in [*HOST_METRICS, "numpy_import_s"]}
    speed = REFERENCE_NUMPY_IMPORT_S / raw["numpy_import_s"]
    metrics = {m: raw[m] * speed ** END_TO_END[m][2] for m in HOST_METRICS}
    per_seed = {}
    for r in pool:
        per_seed.setdefault(r["seed"], r["sim"])
    for m in SIM_METRICS:
        metrics[m] = statistics.fmean(per_seed[s][m] for s in seeds if s in per_seed)
    return metrics, raw


def per_layer(pool: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer medians over the traced processes, in raw host time."""
    traced = [r for r in pool if r["trace"]]
    plain = [r for r in pool if not r["trace"]]
    out = {name: (statistics.median(r["layers"][name][0] for r in traced), unit)
           for name, (_, unit) in traced[0]["layers"].items()}
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - statistics.median(r["wall_s"] for r in plain), "s")
    return out


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> dict | None:
    """Measure one workload; None if no process produced measurements.

    The result holds the JSON fields (correct, attempted, failed, metrics as
    name -> (value, unit)), the report lines, and the raw host medians.
    """
    wl = WORKLOADS[workload]
    seeds = [seed * SEED_STRIDE + i for i in range(wl.seeds)]
    try:
        results = measure(wl, seeds, trace, seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    measured = [r for r in results if "wall_s" in r]
    ok = [r for r in measured if "error" not in r]
    failed = len(results) - len(ok)
    for r in results:
        if "error" in r:
            print(f"failed: seed {r['seed']} trace {int(r['trace'])}: {r['error']}", file=sys.stderr)

    def enough(rs):
        return any(not r["trace"] for r in rs) and (not trace or any(r["trace"] for r in rs))

    # Runs that failed only their output check still measured their times:
    # report those with correct=false rather than no result.
    pool = ok if enough(ok) else measured
    if not enough(pool):
        return None

    lines = [f"workload {workload}; simulation seeds {seeds}; "
             f"{len(results)} processes, {failed} failed"]
    digests = dict(sorted({(r["seed"], r["output_digest"]) for r in pool}))
    lines += [f"output_digest seed {s}: {d}" for s, d in digests.items()]
    lines.append(f"failed_run_share: {failed / len(results):.4f} ratio")
    raw = {}
    if trace:
        metrics = per_layer(pool)
        lines += [f"{name}: {v:.6g} {unit}" for name, (v, unit) in metrics.items()]
    else:
        values, raw = end_to_end(pool, seeds)
        metrics = {m: (values[m], END_TO_END[m][0]) for m in END_TO_END}
        for m, (v, unit) in metrics.items():
            _, kind, exponent = END_TO_END[m]
            if kind == "host":
                q1, q3 = quartiles([r[m] for r in pool])
                scaled = "at reference speed; raw " if exponent else ""
                lines.append(f"{m}: {v:.6g} {unit} (host, {scaled}median of {len(pool)} "
                             f"{raw[m]:.6g}, quartiles {q1:.6g} .. {q3:.6g})")
            else:
                lines.append(f"{m}: {v:.6g} {unit} (simulated, mean over {len(seeds)} seeds)")
        lines.append(f"numpy_import_s: {raw['numpy_import_s']:.6g} s (raw median; "
                     f"reference {REFERENCE_NUMPY_IMPORT_S} s)")
    if not all(math.isfinite(v) for v, _ in metrics.values()):
        return None
    return {"correct": failed == 0, "attempted": len(results), "failed": failed,
            "metrics": metrics, "lines": lines, "digests": digests, "raw": raw}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds positive")
    if not (ROOT / "src" / "ttl_lab" / "__init__.py").is_file():
        print(f"error: no ttl_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    res = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    if res is None:
        print("error: no finite measurement", file=sys.stderr)
        return 1
    print("\n".join(res["lines"]))
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
