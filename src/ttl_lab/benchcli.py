"""Benchmark harness and the ttl-lab command line.

`ttl-lab run` executes a grid of (write fraction x estimator) cells, R seeded
repetitions each, and writes CSV artifacts plus a console table. `ttl-lab
check` runs fast self-diagnostics wired to the math the lab depends on.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import PRESETS, ExperimentConfig, build_config, parse_kv_file
from .estimators import DEFAULT_TTL_GRID, best_default_ttl, make_estimator
from .simcore import Simulation

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


def emit_cdf(values) -> list[tuple[float, float]]:
    """(value, cumulative fraction) pairs, one per sample, sorted ascending."""
    vals = np.sort(np.asarray(values, dtype=np.float64))
    n = vals.size
    return [(float(v), (i + 1) / n) for i, v in enumerate(vals)]


# ---------------------------------------------------------------------------
# running


@dataclass
class RunResult:
    write_fraction: float
    estimator: str
    run: int
    seed: int
    truncated_rmse: float
    resolved: int
    censored: int
    hits: int
    misses: int
    hit_rate: float
    inserts: int
    invalidations: int
    invalidation_rate: float
    stale_reads: int
    evictions: int
    expirations: int
    achieved_throughput: float
    mean_latency: float


def run_single(
    cfg: ExperimentConfig,
    write_fraction: float,
    estimator_kind: str,
    seed: int,
    trace_writer=None,
    log_transitions: bool = False,
):
    """One seeded simulation; returns (RunResult, Simulation, estimator)."""
    spec = cfg.workload_spec(write_fraction)
    sim = Simulation(
        spec,
        cfg.latency_model(),
        cfg.capacity,
        seed,
        telemetry_window=cfg.telemetry_window,
        trace_writer=trace_writer,
    )
    est = make_estimator(
        estimator_kind,
        naf_cfg=cfg.naf,
        reward_cfg=cfg.reward_config(write_fraction),
        rng=sim.agent_rng,
        fixed_ttl=cfg.fixed_ttl,
        poisson_max_ttl=cfg.poisson_max_ttl,
        log_transitions=log_transitions,
    )
    sim.attach(est)
    sim.run()

    oracle = sim.telemetry.oracle
    errors = oracle.resolved_errors()
    stats = sim.cache.stats
    res = RunResult(
        write_fraction=write_fraction,
        estimator=estimator_kind,
        run=seed - cfg.base_seed,
        seed=seed,
        truncated_rmse=truncated_rmse(errors) if errors else float("nan"),
        resolved=len(errors),
        censored=len(oracle.records) - len(errors),
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
    return res, sim, est


def _fmt(x) -> str:
    if isinstance(x, float):
        return "%.10g" % x
    return str(x)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(c) for c in row])


PER_RUN_HEADER = [
    "write_fraction", "estimator", "run", "seed", "truncated_rmse", "hit_rate",
    "invalidation_rate", "hits", "misses", "inserts", "invalidations",
    "stale_reads", "evictions", "expirations", "achieved_throughput",
    "mean_latency", "resolved", "censored",
]

SUMMARY_HEADER = [
    "write_fraction", "estimator", "runs", "truncated_rmse_mean",
    "truncated_rmse_std", "hit_rate_mean", "hit_rate_std",
    "invalidation_rate_mean", "invalidation_rate_std", "stale_reads_mean",
    "achieved_throughput_mean", "resolved_mean", "censored_mean",
    "best_default_ttl", "best_default_rmse",
    "paper_hit_rate", "paper_invalidation_rate",
]

# Published full-scale reference points, reported alongside measured numbers.
PAPER_REFERENCE = {
    (0.1, "naf-dei"): (0.885, 0.073),
    (0.1, "poisson"): (0.795, 0.068),
    (0.3, "naf-dei"): (0.777, 0.214),
    (0.3, "poisson"): (0.626, 0.156),
}


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None, echo=print) -> list[RunResult]:
    """Execute the whole grid and write the CSV artifacts."""
    cfg.validate()
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    results: list[RunResult] = []
    summary_rows: list[list] = []
    cdf_rows: list[tuple[str, float, float]] = []
    replay_rows: list[list] = []
    querytrace_rows: list[list] = []
    trace_fh = None
    trace_done = False
    learned_kinds = ("naf-dei", "naf-naive")
    # cdf.csv carries at most one run per series; learned prefers naf-dei.
    cdf_learned_kind = next(
        (k for k in ("naf-dei", "naf-naive") if k in cfg.estimators), None
    )
    cdf_done: set[str] = set()
    querytrace_done = False

    try:
        for w in cfg.write_fractions:
            cell_best: tuple[float, float] | None = None
            for est_kind in cfg.estimators:
                cell: list[RunResult] = []
                for rep in range(cfg.runs):
                    seed = cfg.base_seed + rep
                    trace_writer = None
                    if rep == 0 and not trace_done:
                        # the op trace comes from the very first cell's first run
                        trace_done = True
                        trace_fh = open(out / "trace.csv", "w", newline="")
                        trace_csv = csv.writer(trace_fh)
                        trace_csv.writerow(["time", "kind", "unit", "outcome", "latency_s"])
                        trace_writer = lambda row: trace_csv.writerow([_fmt(c) for c in row])  # noqa: E731
                    log_tr = cfg.replay_log and rep == 0 and est_kind in learned_kinds
                    res, sim, est = run_single(cfg, w, est_kind, seed, trace_writer, log_tr)
                    if trace_writer is not None:
                        trace_fh.close()
                        trace_fh = None
                    results.append(res)
                    cell.append(res)
                    echo(
                        f"  w={w:g} {est_kind} run {rep} seed {seed}: "
                        f"rmse={res.truncated_rmse:.3f} hit={res.hit_rate:.3f} "
                        f"inval={res.invalidation_rate:.3f} thr={res.achieved_throughput:.1f}"
                    )

                    if rep == 0:
                        oracle = sim.telemetry.oracle
                        if cell_best is None and oracle.true_ttls():
                            cell_best = best_default_ttl(oracle.true_ttls())
                        label = None
                        if est_kind == cdf_learned_kind:
                            label = "learned"
                        elif est_kind == "poisson":
                            label = "poisson"
                        if label is not None and label not in cdf_done:
                            cdf_done.add(label)
                            for v, f in emit_cdf([r.action for r in oracle.records]):
                                cdf_rows.append((label, v, f))
                            if "optimal" not in cdf_done and (
                                label == "learned" or cdf_learned_kind is None
                            ):
                                cdf_done.add("optimal")
                                for v, f in emit_cdf(oracle.true_ttls()):
                                    cdf_rows.append(("optimal", v, f))
                        if log_tr and est.injection_log is not None:
                            for row in est.injection_log:
                                replay_rows.append([w, est_kind, *row])
                        if (
                            not querytrace_done
                            and cfg.trace_query != "none"
                            and (est_kind == cdf_learned_kind or cdf_learned_kind is None)
                        ):
                            querytrace_done = True
                            unit = (
                                sim.hottest_missed_query()
                                if cfg.trace_query == "auto"
                                else int(cfg.trace_query)
                            )
                            if unit is not None:
                                for i, r in enumerate(oracle.records_for_unit(unit)):
                                    querytrace_rows.append(
                                        [unit, i, r.served_at, r.action,
                                         r.true_ttl if r.resolved else ""]
                                    )

                rs = np.array([r.truncated_rmse for r in cell])
                hr = np.array([r.hit_rate for r in cell])
                ir = np.array([r.invalidation_rate for r in cell])
                best_ttl, best_rmse = cell_best if cell_best else (float("nan"), float("nan"))
                ref_hit, ref_inval = PAPER_REFERENCE.get((w, est_kind), ("", ""))
                summary_rows.append([
                    w, est_kind, cfg.runs,
                    float(np.nanmean(rs)), float(np.nanstd(rs)),
                    float(hr.mean()), float(hr.std()),
                    float(ir.mean()), float(ir.std()),
                    float(np.mean([r.stale_reads for r in cell])),
                    float(np.mean([r.achieved_throughput for r in cell])),
                    float(np.mean([r.resolved for r in cell])),
                    float(np.mean([r.censored for r in cell])),
                    best_ttl, best_rmse, ref_hit, ref_inval,
                ])
                echo(
                    f"w={w:g} {est_kind}: rmse {np.nanmean(rs):.3f}+-{np.nanstd(rs):.3f}  "
                    f"hit {hr.mean():.3f}+-{hr.std():.3f}  inval {ir.mean():.3f}+-{ir.std():.3f}  "
                    f"(best default ttl {best_ttl:g} at rmse {best_rmse:.3f})"
                )
    finally:
        if trace_fh is not None:
            trace_fh.close()

    _write_csv(
        out / "per_run.csv",
        PER_RUN_HEADER,
        [
            [r.write_fraction, r.estimator, r.run, r.seed, r.truncated_rmse,
             r.hit_rate, r.invalidation_rate, r.hits, r.misses, r.inserts,
             r.invalidations, r.stale_reads, r.evictions, r.expirations,
             r.achieved_throughput, r.mean_latency, r.resolved, r.censored]
            for r in results
        ],
    )
    _write_csv(out / "summary.csv", SUMMARY_HEADER, summary_rows)
    _write_csv(out / "cdf.csv", ["series", "value", "cum_fraction"], cdf_rows)
    if cfg.trace_query != "none":
        _write_csv(
            out / "querytrace.csv",
            ["unit", "observation", "time", "action", "true_ttl"],
            querytrace_rows,
        )
    if cfg.replay_log:
        _write_csv(
            out / "replay_log.csv",
            ["write_fraction", "estimator", "serve_id", "unit", "decided_at",
             "due_at", "action", "reward"],
            replay_rows,
        )
    echo(f"wrote {out / 'summary.csv'}")
    return results


# ---------------------------------------------------------------------------
# self-diagnostics (ttl-lab check)


class _FixedRates:
    """Telemetry stub for the Poisson check."""

    def __init__(self, rates):
        self.rates = rates

    def write_rate(self, key, now):
        return self.rates.get(key)


def _check_poisson() -> tuple[bool, str]:
    from .estimators import poisson_ttl

    t = _FixedRates({0: 0.02, 1: 0.03})
    a = poisson_ttl([0, 1], t, 0.0, 300.0)
    b = poisson_ttl([5, 6, 7], _FixedRates({}), 0.0, 300.0)
    c = poisson_ttl([5], _FixedRates({}), 0.0, 300.0)
    ok = a == 20.0 and b == 100.0 and c == 300.0
    return ok, f"ttl(0.02+0.03)={a}, ttl(3 unknown)={b}, ttl(1 unknown)={c}"


def _check_naf_identities() -> tuple[bool, str]:
    from .nafagent import HEAD_WIDTH, naf_mu, naf_q, naf_v, q_curve_1d
    from .neural import init_mlp

    worst_gap = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        net = init_mlp((11, 30, 30, HEAD_WIDTH), rng)
        s = rng.uniform(0.0, 1.0, size=11)
        mu = naf_mu(net, s)
        v = naf_v(net, s)
        gap = abs(naf_q(net, s, mu) - v)
        worst_gap = max(worst_gap, gap)
        grid = mu + np.arange(-5000, 5001) * 0.01
        q = q_curve_1d(net, s, grid)
        if q.max() > v:
            return False, f"grid beat mu by {q.max() - v:g} (seed {seed})"
        if gap > 1e-10:
            return False, f"|Q(s,mu)-V| = {gap:g} (seed {seed})"
    return True, f"max |Q(s,mu)-V| = {worst_gap:g} over 5 nets"


def _check_gradients() -> tuple[bool, str]:
    from .nafagent import HEAD_WIDTH, naf_loss_and_grads
    from .neural import init_mlp

    rng = np.random.default_rng(7)
    net = init_mlp((4, 8, HEAD_WIDTH), rng)
    s = rng.normal(size=(6, 4))
    a = rng.uniform(1.0, 30.0, size=6)
    y = rng.normal(size=6)

    _, grads = naf_loss_and_grads(net, s, a, y)
    flat_g = np.concatenate([np.r_[dw.ravel(), db.ravel()] for dw, db in grads])
    base = net.flat()
    eps = 1e-6
    num = np.empty_like(base)
    vec = base.copy()
    for i in range(len(base)):
        vec[i] = base[i] + eps
        net.load_flat(vec)
        f_plus = naf_loss_and_grads(net, s, a, y)[0]
        vec[i] = base[i] - eps
        net.load_flat(vec)
        f_minus = naf_loss_and_grads(net, s, a, y)[0]
        vec[i] = base[i]
        num[i] = (f_plus - f_minus) / (2 * eps)
    net.load_flat(base)
    denom = np.maximum(np.abs(flat_g) + np.abs(num), 1e-8)
    rel = float(np.max(np.abs(flat_g - num) / denom))
    return rel < 1e-4, f"max relative gradient error {rel:.3g}"


def _check_determinism() -> tuple[bool, str]:
    cfg = build_config(overrides={
        "workload.record_count": "300",
        "workload.query_count": "60",
        "workload.duration": "30",
        "workload.target_throughput": "120",
        "cache.capacity": "48",
        "bench.runs": "1",
        "estimator.kind": "naf-dei",
        "naf.explore_steps": "50",
    })
    sig = []
    for _ in range(2):
        res, sim, _ = run_single(cfg, 0.1, "naf-dei", 42)
        sig.append((res.hits, res.misses, res.invalidations, res.truncated_rmse,
                    sim.engine.dispatched))
    return sig[0] == sig[1], f"run signature {sig[0]}"


def _check_snapshot() -> tuple[bool, str]:
    import tempfile

    from .neural import init_mlp, load_weights, save_weights

    rng = np.random.default_rng(3)
    net = init_mlp((5, 7, 4), rng)
    with tempfile.NamedTemporaryFile(suffix=".w") as fh:
        save_weights(net, fh.name)
        back = load_weights(fh.name)
    ok = net.dims == back.dims and np.array_equal(net.flat(), back.flat())
    return ok, f"dims {net.dims}, {net.flat().size} params round-tripped"


def _check_zipf() -> tuple[bool, str]:
    from .workload import ZipfSampler

    rng = np.random.default_rng(11)
    zs = ZipfSampler(100, 0.6)
    n = 20000
    counts = np.zeros(100)
    for _ in range(n):
        counts[zs.sample(rng) - 1] += 1
    expected = zs.pmf() * n
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    # upper 1% critical value for chi-square with 99 degrees of freedom
    return chi2 < 134.642, f"chi2 = {chi2:.1f} (df=99, crit 134.6)"


def _check_arrivals() -> tuple[bool, str]:
    cfg = build_config(overrides={
        "workload.record_count": "300",
        "workload.query_count": "60",
        "workload.duration": "60",
        "workload.target_throughput": "150",
        "cache.capacity": "48",
        "bench.runs": "1",
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
    ("poisson exact values", _check_poisson),
    ("naf argmax and value identities", _check_naf_identities),
    ("naf gradients vs finite differences", _check_gradients),
    ("seeded run determinism", _check_determinism),
    ("weight snapshot round-trip", _check_snapshot),
    ("zipf sampler distribution", _check_zipf),
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
