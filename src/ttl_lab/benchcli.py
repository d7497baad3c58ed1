"""Benchmark harness and the ttl-lab command line.

`ttl-lab run` executes a grid of (write fraction x estimator) cells, R seeded
repetitions each, and writes CSV artifacts plus a console table. `ttl-lab
check` runs gate criteria 01, 02, 03 and 07 plus two quick diagnostics.
"""

from __future__ import annotations

import argparse
import math
import sys
import tempfile
import time
from contextlib import ExitStack
from dataclasses import asdict, astuple, dataclass, fields
from itertools import islice, takewhile
from pathlib import Path

import numpy as np

from .config import PRESETS, ExperimentConfig, build_config, parse_kv_file
from .estimators import LEARNED_KINDS, poisson_ttl
from .nafagent import HEAD_WIDTH, NafWorkspace, naf_head, naf_loss_and_grads, naf_q
from .neural import Workspace, forward, init_mlp
from .simcore import Simulation
from .telemetry import Telemetry
from .workload import WorkloadSpec, op_stream, op_timeline, zipf_cdf

# ---------------------------------------------------------------------------
# metrics


def truncated_rmse(errors, keep: float = 0.99) -> float:
    """RMSE after dropping the top floor((1-keep)*n) magnitudes.

    The fraction is by count, so small samples lose nothing: with n=100 and
    one wild outlier exactly that outlier is dropped, with n=2 both survive.
    """
    errs = np.abs(np.asarray(errors, dtype=np.float64))
    if errs.size == 0:
        raise ValueError("truncated_rmse needs at least one error")
    drop = int(np.floor(errs.size * (1.0 - keep)))
    if drop:
        errs = np.sort(errs)[: errs.size - drop]
    return float(np.sqrt(np.mean(errs * errs)))


DEFAULT_TTL_GRID = (1.0, 2.0, 5.0, 10.0, 20.0, 30.0, 60.0, 120.0, 300.0, 600.0)


def best_default_ttl(true_ttls, candidates=DEFAULT_TTL_GRID) -> tuple[float, float]:
    """Hindsight-best constant TTL over a grid, scored by truncated RMSE."""
    if len(true_ttls) == 0:
        raise ValueError("no resolved true TTLs to score against")
    true_ttls = np.asarray(true_ttls, dtype=np.float64)
    best_c, best_err = None, np.inf
    for c in candidates:
        err = truncated_rmse(c - true_ttls)
        if err < best_err:
            best_c, best_err = c, err
    return float(best_c), float(best_err)


def emit_cdf(values) -> tuple[np.ndarray, np.ndarray]:
    """The empirical CDF of n samples as two new float64 arrays of n entries:
    the values sorted ascending, and the cumulative fraction (i + 1) / n of
    the i-th, the same float as Python's int division gives. They hold 16
    bytes a sample and no Python object per sample; n = 0 gives two empty
    arrays."""
    vals = np.sort(np.asarray(values, dtype=np.float64))
    fracs = np.arange(1, vals.size + 1, dtype=np.float64)
    fracs /= vals.size  # empty when n = 0, so nothing is divided
    return vals, fracs


# ---------------------------------------------------------------------------
# running


@dataclass
class RunResult:
    """One run's metrics, in per_run.csv column order."""

    write_fraction: float
    estimator: str
    run: int
    seed: int
    truncated_rmse: float
    hit_rate: float
    invalidation_rate: float
    hits: int
    misses: int
    inserts: int
    invalidations: int
    stale_reads: int
    evictions: int
    expirations: int
    achieved_throughput: float
    mean_latency: float
    resolved: int
    censored: int


def run_single(
    cfg: ExperimentConfig,
    write_fraction: float,
    estimator_kind: str,
    seed: int,
    trace_writer=None,
    replay_writer=None,
):
    """One seeded simulation; returns (RunResult, Simulation), the estimator
    being `Simulation.estimator`. `trace_writer` and `replay_writer` take the
    run's trace and replay rows as they happen (see Simulation)."""
    sim = Simulation(cfg, write_fraction, estimator_kind, seed, trace_writer, replay_writer).run()

    oracle = sim.telemetry.oracle
    errors = oracle.resolved_errors()
    stats = sim.cache.stats
    res = RunResult(
        write_fraction=write_fraction,
        estimator=estimator_kind,
        run=seed - cfg.base_seed,
        seed=seed,
        truncated_rmse=truncated_rmse(errors) if len(errors) else float("nan"),
        resolved=len(errors),
        censored=len(oracle.actions) - len(errors),
        hit_rate=stats.hit_rate,
        invalidation_rate=stats.invalidation_rate,
        **asdict(stats),  # the cache's seven counts
        achieved_throughput=sim.achieved_throughput,
        mean_latency=sim.mean_latency,
    )
    return res, sim


def _fmt(x) -> str:
    if isinstance(x, float):
        return "%.10g" % x
    return str(x)


# Each CSV's rows in one %-format: the bytes csv.writer writes for
# [_fmt(c) for c in row], as no cell needs quoting. A float cell is %.10g, any
# other %s; a cell that may be blank is passed through _fmt first and is %s.
PER_RUN_HEADER = [f.name for f in fields(RunResult)]
PER_RUN_ROW = ",".join("%.10g" if f.type == "float" else "%s" for f in fields(RunResult)) + "\r\n"

TRACE_HEADER = ["time", "kind", "unit", "outcome", "latency_s"]
TRACE_ROW = "%.10g,%s,%s,%s,%.10g\r\n"

CDF_HEADER = ["series", "value", "cum_fraction"]
CDF_ROW = "%s,%.10g,%.10g\r\n"
# cdf.csv rows are formatted this many at a time, so writing a series holds
# its two emit_cdf columns (16 B a sample) and one chunk of Python objects.
CDF_CHUNK = 4096

# true_ttl is blank for a censored serve
QUERYTRACE_HEADER = ["unit", "observation", "time", "action", "true_ttl"]
QUERYTRACE_ROW = "%s,%s,%.10g,%.10g,%s\r\n"

REPLAY_HEADER = [
    "write_fraction", "estimator", "serve_id", "unit", "decided_at",
    "due_at", "action", "reward",
]
REPLAY_ROW = "%.10g,%s,%s,%s,%.10g,%.10g,%.10g,%.10g\r\n"

SUMMARY_HEADER = [
    "write_fraction", "estimator", "runs", "truncated_rmse_mean",
    "truncated_rmse_std", "hit_rate_mean", "hit_rate_std",
    "invalidation_rate_mean", "invalidation_rate_std", "stale_reads_mean",
    "achieved_throughput_mean", "resolved_mean", "censored_mean",
    "best_default_ttl", "best_default_rmse",
    "paper_hit_rate", "paper_invalidation_rate",
]
# the two paper_* cells are blank where the paper gives no reference point
SUMMARY_ROW = "%.10g,%s,%s," + "%.10g," * 12 + "%s,%s\r\n"

# Published full-scale reference points, reported alongside measured numbers.
PAPER_REFERENCE = {
    (0.1, "naf-dei"): (0.885, 0.073),
    (0.1, "poisson"): (0.795, 0.068),
    (0.3, "naf-dei"): (0.777, 0.214),
    (0.3, "poisson"): (0.626, 0.156),
}


def _write_cdf_series(fh, label: str, values) -> None:
    """Write one cdf.csv series, `label` on every row, CDF_CHUNK rows at a time."""
    vals, fracs = emit_cdf(values)
    for i in range(0, vals.size, CDF_CHUNK):
        chunk = zip(vals[i:i + CDF_CHUNK].tolist(), fracs[i:i + CDF_CHUNK].tolist())
        fh.writelines(CDF_ROW % (label, v, f) for v, f in chunk)


def _query_trace_rows(sim: Simulation, trace_query: str) -> list[tuple]:
    """querytrace.csv rows: every serve of one unit, in order. For "auto" the
    unit is the query with the most misses, each miss being one serve; ties
    go to the smallest id, and a run with no query miss has no rows."""
    oracle = sim.telemetry.oracle
    units = np.asarray(oracle.units)
    if trace_query == "auto":
        misses = np.bincount(units[units < sim.world.first_key_unit], minlength=1)
        unit = int(misses.argmax())
        if not misses[unit]:
            return []
    else:
        unit = int(trace_query)
    rows = []
    for i, sid in enumerate(np.flatnonzero(units == unit).tolist()):
        true_ttl = oracle.true_ttl[sid]
        rows.append((unit, i, oracle.served_at[sid], oracle.actions[sid],
                     "" if math.isnan(true_ttl) else _fmt(true_ttl)))
    return rows


def _open_csv(files: ExitStack, path: Path, header: list[str], written: bool = True):
    """`path` opened on `files` with its header written, truncating any older
    file there; or, if the grid does not write it, None and no file there."""
    if not written:
        path.unlink(missing_ok=True)
        return None
    fh = files.enter_context(open(path, "w", newline=""))
    fh.write(",".join(header) + "\r\n")
    return fh


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None, echo=print) -> list[RunResult]:
    """Execute the whole grid, write the CSV artifacts and return the runs'
    RunResults.

    When the grid starts it opens every file it writes, truncating any older
    file of that name, and writes each header; replay_log.csv (off without
    `bench.replay_log`) and querytrace.csv (off with `bench.trace_query =
    none`) are deleted when the grid does not write them. Rows are written as
    soon as they are known: trace.csv and replay_log.csv rows as the run
    makes them, a per_run.csv row and a run's querytrace.csv rows when the
    run ends, a summary.csv row when its cell ends. So every file in the
    directory is this grid's, and a grid that raises leaves the rows of what
    it finished, and the trace and replay rows of the run that raised.

    Every single-run artifact comes from run 0 of cells chosen up front:
    trace.csv from the first cell; cdf.csv and querytrace.csv from the first
    write fraction, with the learned series from naf-dei (else naf-naive),
    the poisson series from Poisson, `optimal` from the learned run (else
    the Poisson run) and the query trace from the learned run (else the
    first cell); replay_log.csv from every learned cell. A run's simulation
    is released before the next one is built, so the grid holds one at a time.
    """
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    learned = next((k for k in LEARNED_KINDS if k in cfg.estimators), None)
    # estimator kind -> the cdf.csv series its run 0 at the first write fraction feeds
    cdf_series = {
        learned: ("learned", "optimal"),
        "poisson": ("poisson",) if learned else ("poisson", "optimal"),
    }
    query_kind = learned or cfg.estimators[0]

    results: list[RunResult] = []
    with ExitStack() as files:
        trace_fh = _open_csv(files, out / "trace.csv", TRACE_HEADER)
        cdf_fh = _open_csv(files, out / "cdf.csv", CDF_HEADER)
        per_run_fh = _open_csv(files, out / "per_run.csv", PER_RUN_HEADER)
        summary_fh = _open_csv(files, out / "summary.csv", SUMMARY_HEADER)
        replay_fh = _open_csv(files, out / "replay_log.csv", REPLAY_HEADER, cfg.replay_log)
        query_fh = _open_csv(files, out / "querytrace.csv", QUERYTRACE_HEADER,
                             cfg.trace_query != "none")
        for wi, w in enumerate(cfg.write_fractions):
            cell_best: tuple[float, float] | None = None
            for ei, est_kind in enumerate(cfg.estimators):
                cell: list[RunResult] = []
                for rep in range(cfg.runs):
                    seed = cfg.base_seed + rep
                    trace_writer = replay_writer = None
                    if wi == ei == rep == 0:
                        trace_writer = lambda row: trace_fh.write(TRACE_ROW % row)  # noqa: E731
                    if replay_fh is not None and rep == 0 and est_kind in LEARNED_KINDS:
                        replay_writer = lambda row: replay_fh.write(  # noqa: E731
                            REPLAY_ROW % (w, est_kind, *row))
                    res, sim = run_single(cfg, w, est_kind, seed, trace_writer, replay_writer)
                    results.append(res)
                    cell.append(res)
                    per_run_fh.write(PER_RUN_ROW % astuple(res))
                    echo(
                        f"  w={w:g} {est_kind} run {rep} seed {seed}: "
                        f"rmse={res.truncated_rmse:.3f} hit={res.hit_rate:.3f} "
                        f"inval={res.invalidation_rate:.3f} thr={res.achieved_throughput:.1f}"
                    )
                    if rep == 0:
                        oracle = sim.telemetry.oracle
                        true_ttls = oracle.true_ttls()
                        if cell_best is None and len(true_ttls):
                            cell_best = best_default_ttl(true_ttls)
                        if wi == 0:
                            for label in cdf_series.get(est_kind, ()):
                                _write_cdf_series(cdf_fh, label, true_ttls if label == "optimal"
                                                  else oracle.actions)
                            if est_kind == query_kind and query_fh is not None:
                                query_fh.writelines(QUERYTRACE_ROW % row for row
                                                    in _query_trace_rows(sim, cfg.trace_query))
                        del oracle, true_ttls
                    del sim  # the run is freed here, before the next one is built

                rs = np.array([r.truncated_rmse for r in cell])
                # a cell with no resolved serve has only NaN RMSEs, whose nanmean warns
                rs_mean, rs_std = ((float(np.nanmean(rs)), float(np.nanstd(rs)))
                                   if not np.isnan(rs).all() else (math.nan, math.nan))
                hr = np.array([r.hit_rate for r in cell])
                ir = np.array([r.invalidation_rate for r in cell])
                best_ttl, best_rmse = cell_best if cell_best else (float("nan"), float("nan"))
                ref_hit, ref_inval = PAPER_REFERENCE.get((w, est_kind), ("", ""))
                summary_fh.write(SUMMARY_ROW % (
                    w, est_kind, cfg.runs,
                    rs_mean, rs_std,
                    float(hr.mean()), float(hr.std()),
                    float(ir.mean()), float(ir.std()),
                    float(np.mean([r.stale_reads for r in cell])),
                    float(np.mean([r.achieved_throughput for r in cell])),
                    float(np.mean([r.resolved for r in cell])),
                    float(np.mean([r.censored for r in cell])),
                    best_ttl, best_rmse, _fmt(ref_hit), _fmt(ref_inval),
                ))
                echo(
                    f"w={w:g} {est_kind}: rmse {rs_mean:.3f}+-{rs_std:.3f}  "
                    f"hit {hr.mean():.3f}+-{hr.std():.3f}  inval {ir.mean():.3f}+-{ir.std():.3f}  "
                    f"(best default ttl {best_ttl:g} at rmse {best_rmse:.3f})"
                )

    echo(f"wrote {out / 'summary.csv'}")
    return results


# ---------------------------------------------------------------------------
# self-diagnostics (ttl-lab check). The first four are acceptance criteria
# 01, 02, 03 and 07: the gate calls these same functions.


def check_poisson_exact() -> tuple[bool, str]:
    """The closed-form TTL on three cases with exact answers."""

    tel = Telemetry(window=100.0)
    for key in (0, 0, 1, 1, 1):  # 2 and 3 writes in the window: 0.02 and 0.03 per second
        tel.record_write(key, 0.0)
    a, b, c = (poisson_ttl(tel.write_rates(keys, 0.0), len(keys), 300.0)
               for keys in ([0, 1], [5, 6, 7], [9]))
    ok = a == 20.0 and b == 100.0 and c == 300.0
    return ok, f"got {a}, {b}, {c}"


def check_naf_identities() -> tuple[bool, str]:
    """Q(s, mu) = V(s), and no action within mu +/- 100 at 0.01 resolution
    beats mu, for 200 states of each of 5 random nets."""
    offsets = np.arange(-10000, 10001) * 0.01
    worst_gap = 0.0
    worst_beat = -np.inf
    checked = 0
    for net_seed in range(5):
        rng = np.random.default_rng(200 + net_seed)
        net = init_mlp((11, 30, 30, HEAD_WIDTH), rng)
        ws = Workspace(net.dims, (1,))
        for _ in range(200):
            s = rng.normal(0.0, 1.0, size=11)
            mu, v, _ = naf_head(net, s, ws)
            worst_gap = max(worst_gap, abs(naf_q(net, s, mu, ws) - v))
            q = naf_q(net, s, mu + offsets, ws)
            worst_beat = max(worst_beat, float(q.max()) - v)
            checked += 1
    ok = checked == 1000 and worst_gap < 1e-10 and worst_beat <= 0.0
    return ok, (f"{checked} states, max |Q(s,mu)-V| = {worst_gap:.3g}, "
                f"max grid excess = {worst_beat:.3g}")


def _fd_worst_error(rng: np.random.Generator, dims=(4, 8, HEAD_WIDTH), h: float = 1e-5) -> float:
    """Worst relative error of the analytic NAF loss gradient against central
    finite differences, over every weight and bias of one random net."""
    net = init_mlp(dims, rng)
    n = 3
    states = rng.normal(0.0, 1.0, size=(n, dims[0]))
    actions = rng.uniform(-2.0, 2.0, size=n)
    targets = rng.normal(0.0, 2.0, size=n)
    ws = NafWorkspace(dims, (n,))
    forward(net, states, ws)
    grad = naf_loss_and_grads(net, ws, actions, targets)[1].copy()
    params = net.params

    def loss_with(i, x):
        params[i] = x
        forward(net, states, ws)
        return naf_loss_and_grads(net, ws, actions, targets)[0]

    worst = 0.0
    for i, g in enumerate(grad):
        x = params[i]
        fd = (loss_with(i, x + h) - loss_with(i, x - h)) / (2.0 * h)
        params[i] = x
        worst = max(worst, abs(g - fd) / max(abs(g), abs(fd), 1e-4))
    return worst


def check_gradients() -> tuple[bool, str]:
    """Analytic gradients match finite differences on 80 random instances,
    within 1e-4 relative error and 10 s."""
    start = time.perf_counter()
    worst = 0.0
    for seed in range(80):
        worst = max(worst, _fd_worst_error(np.random.default_rng(300 + seed)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 10.0
    return ok, f"80 instances, max rel err = {worst:.3g}, {elapsed:.1f}s"


# A sub-second world; with the default estimators, 2 runs each of a poisson
# and a naf-dei cell.
CHECK_OVERRIDES = {
    "workload.record_count": "300",
    "workload.query_count": "60",
    "workload.duration": "30",
    "workload.target_throughput": "120",
    "cache.capacity": "48",
    "naf.explore_steps": "50",
    "naf.noise_decay_steps": "500",
    "naf.ttl_max": "60",
    "bench.runs": "2",
}


# check_determinism's grids, both writing replay_log.csv: CHECK_OVERRIDES, and
# one run per cell of what that grid leaves out: point reads (w 0.2, query
# share 0.5), the naf-naive and fixed kinds and the survival reward.
DETERMINISM_GRIDS = (
    {**CHECK_OVERRIDES, "bench.replay_log": "true"},
    {
        **CHECK_OVERRIDES,
        "workload.write_fraction": "0.2",
        "workload.query_fraction": "0.5",
        "estimator.kind": "poisson,naf-dei,naf-naive,fixed",
        "reward.form": "survival",
        "bench.replay_log": "true",
        "bench.runs": "1",
    },
)


def check_determinism() -> tuple[bool, str]:
    """Two runs of each of DETERMINISM_GRIDS write the same files, byte for
    byte."""
    same, details = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for g, overrides in enumerate(DETERMINISM_GRIDS):
            outs = []
            for sub in ("first", "second"):
                out = Path(tmp) / f"{g}-{sub}"
                run_experiment(build_config(overrides=overrides), out_dir=out, echo=lambda *a: None)
                outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
            same.append(outs[0] == outs[1])
            details.append(", ".join(f"{name} {len(data)} bytes" for name, data in outs[0].items()))
    return all(same), "; ".join(details)


def _check_zipf() -> tuple[bool, str]:
    """Chi-square of the key ranks a run draws: the op decoder, all reads."""
    spec = WorkloadSpec(record_count=100, write_fraction=0.0, query_fraction=0.0, zipf_s=0.6)
    ops = op_stream(spec, np.random.default_rng(11))
    n = 20000
    counts = np.bincount([target for _, target, _ in islice(ops, n)], minlength=100)
    expected = np.diff(zipf_cdf(100, 0.6), prepend=0.0) * n
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    # upper 1% critical value for chi-square with 99 degrees of freedom
    return chi2 < 134.642, f"chi2 = {chi2:.1f} (df=99, crit 134.6)"


def _check_arrivals() -> tuple[bool, str]:
    # arrival times depend on the throughput and the seed alone
    timeline = op_timeline(WorkloadSpec(target_throughput=150.0), 9)
    times = [t for t, _ in takewhile(lambda arrival: arrival[0] <= 60.0, timeline)]
    gaps = np.diff(np.array(times))
    gaps = gaps[gaps > 0]
    lam = 1.0 / gaps.mean()
    u = np.sort(1.0 - np.exp(-lam * gaps))
    n = len(u)
    d = float(np.max(np.maximum(u - np.arange(n) / n, (np.arange(n) + 1) / n - u)))
    crit = 1.63 / np.sqrt(n)  # KS critical value at p=0.01
    return d < crit, f"KS D={d:.4f} (crit {crit:.4f}, n={n})"


CHECKS = [
    ("poisson exact values", check_poisson_exact),
    ("naf argmax and value identities", check_naf_identities),
    ("naf gradients vs finite differences", check_gradients),
    ("seeded run determinism", check_determinism),
    ("zipf key ranks of the op stream", _check_zipf),
    ("poisson arrival gaps", _check_arrivals),
]


def cmd_check(_args) -> int:
    failures = 0
    for name, fn in CHECKS:
        try:
            ok, detail = fn()
        except Exception as e:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(e).__name__}: {e}"
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        failures += 0 if ok else 1
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# CLI


# `ttl-lab run`'s flags, by argument name, and the config key each one sets
RUN_FLAG_KEYS = {
    "estimator": "estimator.kind",
    "seed": "bench.base_seed",
    "runs": "bench.runs",
    "out_dir": "bench.out_dir",
    "trace_query": "bench.trace_query",
}


def cmd_run(args) -> int:
    file_kv = parse_kv_file(args.config) if args.config else {}
    flags = vars(args)
    overrides = {key: str(flags[flag]) for flag, key in RUN_FLAG_KEYS.items()
                 if flags[flag] is not None}
    cfg = build_config(args.preset, file_kv, overrides)
    run_experiment(cfg)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ttl-lab",
        description="Web-cache TTL laboratory: Poisson baseline vs NAF learners.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a benchmark grid and write CSVs")
    p_run.add_argument("--config", type=Path, help="key=value config file")
    p_run.add_argument("--preset", choices=sorted(PRESETS), help="baseline parameter set")
    p_run.add_argument("--estimator", help="single estimator kind (overrides estimator.kind)")
    p_run.add_argument("--seed", type=int, help="base seed (run i uses seed+i)")
    p_run.add_argument("--runs", type=int, help="repetitions per cell")
    p_run.add_argument("--out-dir", help="artifact directory")
    p_run.add_argument("--trace-query", help="'auto' or a query id; writes querytrace.csv")

    sub.add_parser("check", help="run fast self-diagnostics")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        return cmd_check(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
