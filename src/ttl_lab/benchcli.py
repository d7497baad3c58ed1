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
from dataclasses import astuple, dataclass, fields
from itertools import islice
from pathlib import Path

import numpy as np

from .config import PRESETS, ExperimentConfig, build_config, parse_kv_file
from .estimators import poisson_ttl
from .nafagent import HEAD_WIDTH, NafWorkspace, naf_head, naf_loss_and_grads, naf_q
from .neural import Workspace, forward, init_mlp
from .simcore import Simulation
from .telemetry import Telemetry
from .workload import OpStream, WorkloadSpec, ZipfSampler

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


def emit_cdf(values) -> list[tuple[float, float]]:
    """(value, cumulative fraction) pairs, one per sample, sorted ascending."""
    vals = np.sort(np.asarray(values, dtype=np.float64))
    n = vals.size
    return [(float(v), (i + 1) / n) for i, v in enumerate(vals)]


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
    log_transitions: bool = False,
):
    """One seeded simulation; returns (RunResult, Simulation), the estimator
    being `Simulation.estimator`."""
    sim = Simulation(cfg, write_fraction, estimator_kind, seed, trace_writer, log_transitions).run()

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
        hits=stats.hits,
        misses=stats.misses,
        hit_rate=stats.hit_rate,
        inserts=stats.inserts,
        invalidations=stats.invalidations,
        invalidation_rate=stats.invalidation_rate,
        stale_reads=stats.stale_reads,
        evictions=stats.evictions,
        expirations=stats.expirations,
        achieved_throughput=sim.achieved_throughput,
        mean_latency=sim.mean_latency,
    )
    return res, sim


def _fmt(x) -> str:
    if isinstance(x, float):
        return "%.10g" % x
    return str(x)


def _write_csv(path: Path, header: list[str], row_format: str, rows) -> None:
    """One header line, then `row_format % row` for each row (a tuple)."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(row_format % row for row in rows)


# Each CSV's rows in one %-format: the bytes csv.writer writes for
# [_fmt(c) for c in row], as no cell needs quoting. A float cell is %.10g, any
# other %s; a cell that may be blank is passed through _fmt first and is %s.
PER_RUN_HEADER = [f.name for f in fields(RunResult)]
PER_RUN_ROW = ",".join("%.10g" if f.type == "float" else "%s" for f in fields(RunResult)) + "\r\n"

TRACE_HEADER = "time,kind,unit,outcome,latency_s\r\n"
TRACE_ROW = "%.10g,%s,%s,%s,%.10g\r\n"

CDF_HEADER = ["series", "value", "cum_fraction"]
CDF_ROW = "%s,%.10g,%.10g\r\n"

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

LEARNED_KINDS = ("naf-dei", "naf-naive")


def _query_trace_rows(sim: Simulation, trace_query: str) -> list[tuple]:
    """querytrace.csv rows: every serve of one query unit, in order."""
    unit = sim.hottest_missed_query() if trace_query == "auto" else int(trace_query)
    if unit is None:
        return []
    oracle = sim.telemetry.oracle
    rows = []
    for i, sid in enumerate(oracle.serves_of_unit(unit)):
        true_ttl = oracle.true_ttl[sid]
        rows.append((unit, i, oracle.served_at[sid], oracle.actions[sid],
                     "" if math.isnan(true_ttl) else _fmt(true_ttl)))
    return rows


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None, echo=print) -> list[RunResult]:
    """Execute the whole grid and write the CSV artifacts.

    Every single-run artifact comes from run 0 of cells chosen up front:
    trace.csv from the first cell; cdf.csv and querytrace.csv from the first
    write fraction, with the learned series from naf-dei (else naf-naive),
    the poisson series from Poisson, `optimal` from the learned run (else
    the Poisson run) and the query trace from the learned run (else the
    first cell); replay_log.csv from every learned cell.
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
    summary_rows: list[tuple] = []
    replay_rows: list[tuple] = []
    querytrace_rows: list[tuple] = []
    with open(out / "trace.csv", "w", newline="") as trace_fh, \
            open(out / "cdf.csv", "w", newline="") as cdf_fh:
        trace_fh.write(TRACE_HEADER)
        cdf_fh.write(",".join(CDF_HEADER) + "\r\n")
        for wi, w in enumerate(cfg.write_fractions):
            cell_best: tuple[float, float] | None = None
            for ei, est_kind in enumerate(cfg.estimators):
                cell: list[RunResult] = []
                for rep in range(cfg.runs):
                    seed = cfg.base_seed + rep
                    trace_writer = None
                    if wi == ei == rep == 0:
                        trace_writer = lambda row: trace_fh.write(TRACE_ROW % row)  # noqa: E731
                    log_tr = cfg.replay_log and rep == 0 and est_kind in LEARNED_KINDS
                    res, sim = run_single(cfg, w, est_kind, seed, trace_writer, log_tr)
                    results.append(res)
                    cell.append(res)
                    echo(
                        f"  w={w:g} {est_kind} run {rep} seed {seed}: "
                        f"rmse={res.truncated_rmse:.3f} hit={res.hit_rate:.3f} "
                        f"inval={res.invalidation_rate:.3f} thr={res.achieved_throughput:.1f}"
                    )
                    if rep != 0:
                        continue
                    oracle = sim.telemetry.oracle
                    true_ttls = oracle.true_ttls()
                    if cell_best is None and len(true_ttls):
                        cell_best = best_default_ttl(true_ttls)
                    if log_tr:
                        replay_rows += [(w, est_kind, *row) for row in sim.estimator.injection_log]
                    if wi != 0 or cfg.estimators.index(est_kind) != ei:
                        continue  # a repeated write fraction or estimator feeds nothing more
                    for label in cdf_series.get(est_kind, ()):
                        values = true_ttls if label == "optimal" else oracle.actions
                        cdf_fh.writelines(CDF_ROW % (label, v, f) for v, f in emit_cdf(values))
                    if est_kind == query_kind and cfg.trace_query != "none":
                        querytrace_rows = _query_trace_rows(sim, cfg.trace_query)

                rs = np.array([r.truncated_rmse for r in cell])
                # a cell with no resolved serve has only NaN RMSEs, whose nanmean warns
                rs_mean, rs_std = ((float(np.nanmean(rs)), float(np.nanstd(rs)))
                                   if not np.isnan(rs).all() else (math.nan, math.nan))
                hr = np.array([r.hit_rate for r in cell])
                ir = np.array([r.invalidation_rate for r in cell])
                best_ttl, best_rmse = cell_best if cell_best else (float("nan"), float("nan"))
                ref_hit, ref_inval = PAPER_REFERENCE.get((w, est_kind), ("", ""))
                summary_rows.append((
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

    _write_csv(out / "per_run.csv", PER_RUN_HEADER, PER_RUN_ROW, map(astuple, results))
    _write_csv(out / "summary.csv", SUMMARY_HEADER, SUMMARY_ROW, summary_rows)
    if cfg.trace_query != "none":
        _write_csv(out / "querytrace.csv", QUERYTRACE_HEADER, QUERYTRACE_ROW, querytrace_rows)
    if cfg.replay_log:
        _write_csv(out / "replay_log.csv", REPLAY_HEADER, REPLAY_ROW, replay_rows)
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
    a = poisson_ttl([0, 1], tel, 0.0, 300.0)
    b = poisson_ttl([5, 6, 7], tel, 0.0, 300.0)
    c = poisson_ttl([9], tel, 0.0, 300.0)
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


def check_determinism() -> tuple[bool, str]:
    """Two runs of one config write the same files, byte for byte."""
    outs = []
    with tempfile.TemporaryDirectory() as tmp:
        for sub in ("first", "second"):
            cfg = build_config(overrides=CHECK_OVERRIDES)
            out = Path(tmp) / sub
            run_experiment(cfg, out_dir=out, echo=lambda *a: None)
            outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    ok = outs[0] == outs[1]
    return ok, ", ".join(f"{name} {len(data)} bytes" for name, data in outs[0].items())


def _check_zipf() -> tuple[bool, str]:
    """Chi-square of the key ranks a run draws: the OpStream decoder, all reads."""
    spec = WorkloadSpec(record_count=100, write_fraction=0.0, query_fraction=0.0, zipf_s=0.6)
    ops = OpStream(spec, np.random.default_rng(11))
    n = 20000
    counts = np.bincount([target for _, target, _ in islice(ops, n)], minlength=100)
    expected = ZipfSampler(100, 0.6).pmf() * n
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    # upper 1% critical value for chi-square with 99 degrees of freedom
    return chi2 < 134.642, f"chi2 = {chi2:.1f} (df=99, crit 134.6)"


def _check_arrivals() -> tuple[bool, str]:
    cfg = build_config(overrides={
        **CHECK_OVERRIDES,
        "workload.duration": "60",
        "workload.target_throughput": "150",
        "estimator.kind": "fixed",
    })
    times = []
    writer = lambda row: times.append(row[0])  # noqa: E731
    run_single(cfg, 0.1, "fixed", 9, trace_writer=writer)
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


def cmd_run(args) -> int:
    file_kv = parse_kv_file(args.config) if args.config else {}
    overrides: dict[str, str] = {}
    if args.estimator:
        overrides["estimator.kind"] = args.estimator
    if args.seed is not None:
        overrides["bench.base_seed"] = str(args.seed)
    if args.runs is not None:
        overrides["bench.runs"] = str(args.runs)
    if args.out_dir is not None:
        overrides["bench.out_dir"] = str(args.out_dir)
    if args.trace_query is not None:
        overrides["bench.trace_query"] = args.trace_query
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
    p_run.add_argument("--out-dir", type=Path, help="artifact directory")
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
