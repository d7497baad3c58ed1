"""One benchmark measurement: a fresh process runs one ttl_lab cell once.

Usage (run.py starts it; the argument is a JSON object):

    python3 perfbench/worker.py '{"src": ..., "preset": ..., "overrides": {...},
        "seed": 1, "out_dir": ..., "trace": false, "t_spawn": <time.monotonic()>}'

It builds the config, calls run_experiment for one (write fraction,
estimator) cell with one run, checks the CSV artifacts against each other,
and prints one JSON line with the timings, the simulated metrics, the output
digest, the time `import numpy` took and, when traced, the per-layer
metrics. Any failure raises, so the
process exits non-zero.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import resource
import sys
import time
from collections import Counter
from pathlib import Path

DIGEST_FILES = ("per_run.csv", "summary.csv", "cdf.csv")


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def output_digest(out: Path) -> str:
    h = hashlib.sha256()
    for name in DIGEST_FILES:
        h.update(name.encode() + b"\0" + (out / name).read_bytes())
    return h.hexdigest()[:16]


def check_outputs(out: Path, cfg, estimator: str) -> tuple[dict[str, float], list[str]]:
    """Cross-check per_run.csv against summary.csv, cdf.csv and trace.csv.

    Returns the simulated metrics and a list of the checks that failed.
    """
    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    def close(a: float, b: float) -> bool:  # the CSVs carry 10 significant digits
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)

    per_run = _rows(out / "per_run.csv")
    expect(len(per_run) == 1, f"per_run.csv has {len(per_run)} rows, expected 1")
    row = per_run[0]
    expect(row["estimator"] == estimator, f"per_run.csv estimator {row['estimator']!r}")
    r = {k: float(v) for k, v in row.items() if k != "estimator"}
    bad = sorted(k for k, v in r.items() if not math.isfinite(v))
    expect(not bad, f"non-finite per_run.csv fields {bad}")

    expect(r["inserts"] == r["misses"], "every miss inserts one entry")
    expect(r["resolved"] + r["censored"] == r["misses"], "every serve is resolved or censored")
    expect(r["invalidations"] <= r["inserts"], "more invalidations than inserts")
    expect(close(r["hit_rate"], r["hits"] / (r["hits"] + r["misses"])), "hit_rate != hits/requests")
    expect(close(r["invalidation_rate"], r["invalidations"] / r["inserts"]),
           "invalidation_rate != invalidations/inserts")
    lat = cfg.latency_model()
    expect(lat.hit_latency <= r["mean_latency"] <= lat.miss_latency, "mean_latency out of range")

    outcomes = Counter(t["outcome"] for t in _rows(out / "trace.csv"))
    expect(outcomes["hit"] + outcomes["stale_hit"] == r["hits"], "trace.csv hits != per_run hits")
    expect(outcomes["stale_hit"] == r["stale_reads"], "trace.csv stale hits != stale_reads")
    expect(outcomes["miss"] == r["misses"], "trace.csv misses != per_run misses")
    expect(sum(outcomes.values()) == round(r["achieved_throughput"] * cfg.duration),
           "trace.csv rows != achieved_throughput * duration")

    summary = _rows(out / "summary.csv")
    expect(len(summary) == 1, f"summary.csv has {len(summary)} rows, expected 1")
    for col in ("hit_rate", "invalidation_rate", "truncated_rmse"):
        expect(close(float(summary[0][f"{col}_mean"]), r[col]), f"summary {col}_mean != per_run")

    series = Counter()
    for c in _rows(out / "cdf.csv"):
        series[c["series"]] += 1
    own = "poisson" if estimator == "poisson" else "learned"
    expect(series[own] == r["misses"], f"cdf.csv {own} series has {series[own]} points")
    expect(series["optimal"] == r["resolved"], f"cdf.csv optimal series has {series['optimal']} points")

    sim = {k: r[k] for k in ("hit_rate", "invalidation_rate", "truncated_rmse")}
    return sim, problems


def main(spec: dict) -> dict:
    # The reference for machine speed (run.REFERENCE_NUMPY_IMPORT_S).
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before its import could be timed")
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    numpy_import_s = time.perf_counter() - t0

    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import ttl_lab
    from ttl_lab import benchcli
    from ttl_lab.simcore import Engine

    if Path(ttl_lab.__file__).resolve().parent != src / "ttl_lab":
        raise RuntimeError(f"imported ttl_lab from {ttl_lab.__file__}, not {src}")

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(ttl_lab)

    loop = {}
    run_until = Engine.run_until

    def timed_run_until(engine, t_end):
        sim = engine.handler.__self__
        loop["start"] = time.monotonic()
        n = run_until(engine, t_end)
        loop["end"] = time.monotonic()
        loop["ops"] = sim.op_arrivals
        return n

    Engine.run_until = timed_run_until

    out = Path(spec["out_dir"])
    overrides = dict(spec["overrides"], **{
        "bench.runs": "1",
        "bench.base_seed": str(spec["seed"]),
        "bench.out_dir": str(out),
    })
    cfg = ttl_lab.build_config(spec["preset"], overrides=overrides)
    t0 = time.perf_counter()
    benchcli.run_experiment(cfg, out, echo=lambda *_: None)
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    estimator = cfg.estimators[0]
    sim, problems = check_outputs(out, cfg, estimator)
    result = {
        "seed": spec["seed"],
        "trace": spec["trace"],
        "wall_s": wall_s,
        "setup_s": loop["start"] - spec["t_spawn"],
        "sim_ops_per_s": loop["ops"] / (loop["end"] - loop["start"]),
        "peak_rss_mb": peak_rss_mb,
        "numpy_import_s": numpy_import_s,
        "sim": sim,
        "output_digest": output_digest(out),
        "problems": problems,
    }
    if tracer is not None:
        csv_bytes = sum(p.stat().st_size for p in out.glob("*.csv"))
        result["layers"] = tracer.layer_metrics(csv_bytes)
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
