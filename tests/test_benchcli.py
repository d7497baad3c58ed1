"""Metrics, configuration handling, and the ttl-lab command line end to end."""

from __future__ import annotations

import csv
import dataclasses
import inspect
import io
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ttl_lab
from ttl_lab.benchcli import (
    CDF_HEADER,
    CDF_ROW,
    PER_RUN_HEADER,
    PER_RUN_ROW,
    QUERYTRACE_HEADER,
    QUERYTRACE_ROW,
    REPLAY_HEADER,
    REPLAY_ROW,
    SUMMARY_HEADER,
    SUMMARY_ROW,
    TRACE_HEADER,
    TRACE_ROW,
    RunResult,
    _fmt,
    emit_cdf,
    main,
    run_experiment,
    run_single,
    truncated_rmse,
)
from ttl_lab.config import (
    PRESETS,
    SCHEMA,
    ExperimentConfig,
    _parse_float,
    build_config,
    parse_kv_file,
)
from ttl_lab.dei import RewardConfig
from ttl_lab.estimators import make_estimator
from ttl_lab.nafagent import NafConfig
from ttl_lab.simcore import LatencyModel, Simulation
from ttl_lab.workload import WorkloadSpec

# ---------------------------------------------------------------------------
# metrics


def test_truncated_rmse_drops_only_the_top_percent():
    errors = [1.0] * 99 + [1000.0]
    assert truncated_rmse(errors) == 1.0


def test_truncated_rmse_all_zero():
    assert truncated_rmse([0.0] * 10) == 0.0


def test_truncated_rmse_small_samples_keep_everything():
    # floor(n * 0.01) = 0 for n < 100: nothing is dropped
    assert truncated_rmse([3.0, 4.0]) == pytest.approx(math.sqrt(12.5))
    assert truncated_rmse([-5.0]) == 5.0


def test_truncated_rmse_uses_magnitudes():
    assert truncated_rmse([-1.0] * 99 + [1e6]) == 1.0


def test_truncated_rmse_matches_independent_recomputation():
    rng = np.random.default_rng(15)
    errors = rng.normal(0.0, 10.0, size=737).tolist()
    magnitudes = sorted(abs(e) for e in errors)
    kept = magnitudes[: len(magnitudes) - int(len(magnitudes) * 0.01)]
    expected = math.sqrt(sum(e * e for e in kept) / len(kept))
    assert truncated_rmse(errors) == pytest.approx(expected, abs=1e-12)


def test_truncated_rmse_keep_parameter():
    errors = [1.0] * 6 + [50.0, 60.0]
    assert truncated_rmse(errors, keep=0.75) == 1.0  # floor(8 * 0.25) = 2 dropped
    assert truncated_rmse(errors, keep=1.0) == pytest.approx(
        math.sqrt((6 + 2500 + 3600) / 8)
    )


def test_truncated_rmse_empty_raises():
    with pytest.raises(ValueError, match="at least one"):
        truncated_rmse([])


def test_emit_cdf():
    assert emit_cdf([3.0, 1.0, 2.0]) == [
        (1.0, pytest.approx(1 / 3)),
        (2.0, pytest.approx(2 / 3)),
        (3.0, pytest.approx(1.0)),
    ]
    assert emit_cdf([7.5]) == [(7.5, 1.0)]


# ---------------------------------------------------------------------------
# configuration


def test_schema_covers_presets():
    for preset, kv in PRESETS.items():
        for key in kv:
            assert key in SCHEMA, f"preset {preset} uses unknown key {key}"


def test_build_config_defaults():
    cfg = build_config()
    assert cfg.workload.record_count == 2000
    assert cfg.write_fractions == (0.1,)
    assert cfg.estimators == ("poisson", "naf-dei")


def test_naf_and_reward_defaults_have_one_source():
    cfg = build_config()
    assert cfg.naf == NafConfig()
    assert cfg.reward == RewardConfig()
    # the factory keeps no defaults of its own: it reads every setting from cfg
    params = inspect.signature(make_estimator).parameters.values()
    assert [p.name for p in params if p.default is not p.empty] == ["log_transitions"]
    # the workload and latency sections too: a default cell is WorkloadSpec()
    assert cfg.workload_spec(WorkloadSpec.write_fraction) == WorkloadSpec()
    assert cfg.latency == LatencyModel()
    for section, cls in (("naf", NafConfig), ("reward", RewardConfig),
                         ("workload", WorkloadSpec), ("latency", LatencyModel)):
        for f in dataclasses.fields(cls):
            assert f"{section}.{f.name}" in SCHEMA


def test_reward_form_by_preset():
    assert build_config().reward.form == "flat"
    assert build_config(preset="desk").reward.form == "flat"
    assert build_config(preset="paper").reward.form == "survival"
    with pytest.raises(ValueError, match="reward form"):
        build_config(overrides={"reward.form": "linear"})


def test_build_config_precedence(tmp_path):
    f = tmp_path / "exp.cfg"
    f.write_text("cache.capacity = 200\nworkload.duration = 42\n")
    cfg = build_config(
        preset="desk",  # capacity 160, duration 300
        file_kv=parse_kv_file(f),
        overrides={"cache.capacity": "300"},
    )
    assert cfg.capacity == 300  # CLI beats file beats preset
    assert cfg.workload.duration == 42.0  # file beats preset
    assert cfg.workload.record_count == 2000  # preset beats defaults


def test_build_config_rejects_unknown_key_and_bad_value():
    with pytest.raises(ValueError, match="unknown config key 'cache.capcity'"):
        build_config(overrides={"cache.capcity": "100"})
    with pytest.raises(ValueError, match="bad value for cache.capacity"):
        build_config(overrides={"cache.capacity": "many"})
    with pytest.raises(ValueError, match="unknown preset"):
        build_config(preset="galaxy")


def test_parse_kv_file(tmp_path):
    f = tmp_path / "exp.cfg"
    f.write_text(
        "# a comment line\n"
        "\n"
        "workload.duration = 60  # trailing comment\n"
        "bench.trace_query=auto\n"
    )
    assert parse_kv_file(f) == {"workload.duration": "60", "bench.trace_query": "auto"}

    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(ValueError, match="bad.cfg:1"):
        parse_kv_file(bad)


def test_config_list_valued_keys():
    cfg = build_config(overrides={
        "workload.write_fraction": "0.1, 0.3",
        "estimator.kind": "poisson,fixed",
        "naf.hidden": "16, 16",
    })
    assert cfg.write_fractions == (0.1, 0.3)
    assert cfg.estimators == ("poisson", "fixed")
    assert cfg.naf.hidden == (16, 16)


def test_config_validation_errors():
    with pytest.raises(ValueError, match="unknown estimator"):
        build_config(overrides={"estimator.kind": "lru"})
    with pytest.raises(ValueError, match="write fraction"):
        build_config(overrides={"workload.write_fraction": "1.5"})
    # every cell is checked before the first run, not only the first one
    with pytest.raises(ValueError, match="write fraction 0.6: write_fraction \\+ query_fraction"):
        build_config(overrides={"workload.write_fraction": "0.1,0.6",
                                "workload.query_fraction": "0.5"})
    with pytest.raises(ValueError, match="write fraction 1.0: the load threshold 1 - w must be positive"):
        build_config(overrides={"workload.write_fraction": "0.1,1.0"})
    with pytest.raises(ValueError, match="runs"):
        build_config(overrides={"bench.runs": "0"})
    with pytest.raises(ValueError, match="trace_query"):
        build_config(overrides={"bench.trace_query": "hottest"})
    with pytest.raises(ValueError, match="trace_query"):
        build_config(overrides={"bench.trace_query": "100000"})
    build_config(overrides={"bench.trace_query": "5"})  # a real query id is fine


def test_reward_threshold_is_one_minus_w_and_not_a_key():
    cfg = build_config(overrides={"workload.write_fraction": "0.1,0.3"})
    thresholds = [Simulation(cfg, w, "naf-dei", seed=1).estimator.load_threshold
                  for w in cfg.write_fractions]
    assert thresholds == [0.9, 0.7]
    assert len(dataclasses.fields(RewardConfig)) == 2
    for key, raw in (("reward.load_threshold", "0.6"),
                     ("reward.adjust_threshold_to_workload", "false"),
                     ("reward.above_threshold_form", "literal")):
        with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
            build_config(overrides={key: raw})
    assert len(SCHEMA) == 40


RUN_FAILING_SETTINGS = [
    ("cache.capacity", "0", "capacity must be >= 1"),
    ("telemetry.window", "-1", "window must be a positive finite number"),
    ("naf.target_sync_interval", "0", "target_sync_interval must be >= 1"),
    ("naf.hidden", "0", "every hidden width must be >= 1"),
    ("naf.hidden", "30,0", "every hidden width must be >= 1"),
    ("naf.rate_inputs", "-1", "rate_inputs must be >= 0"),
    ("bench.base_seed", "-1", "base_seed must be >= 0"),
    ("naf.lr", "-0.01", "lr must be >= 0"),
    ("naf.clip", "-5", "clip must be >= 0"),
    ("naf.explore_steps", "-5", "explore_steps must be >= 0"),
    ("naf.noise_decay_steps", "-1", "noise_decay_steps must be >= 0"),
    ("naf.noise_sigma_start", "-3", "noise_sigma_start must be >= 0"),
    ("naf.noise_sigma_end", "-1", "noise_sigma_end must be >= 0"),
    ("workload.scan_mean", "-4", "scan_mean must be >= 0"),
]


@pytest.mark.parametrize(("key", "raw", "match"), RUN_FAILING_SETTINGS,
                         ids=[f"{key}={raw}" for key, raw, _ in RUN_FAILING_SETTINGS])
def test_settings_that_fail_a_run_fail_at_build_time(key, raw, match):
    # each of these used to pass build_config and then fail inside run_experiment
    # or run silently reinterpreted (a negative sigma flips the noise's sign)
    with pytest.raises(ValueError, match=match):
        build_config(overrides={key: raw})


def test_zero_lr_and_clip_stay_legal():
    naf = build_config(overrides={"naf.lr": "0", "naf.clip": "0"}).naf  # 0 clip disables
    assert (naf.lr, naf.clip) == (0.0, 0.0)


def test_zero_exploration_and_scan_settings_stay_legal():
    keys = ("naf.explore_steps", "naf.noise_decay_steps", "naf.noise_sigma_start",
            "naf.noise_sigma_end", "workload.scan_mean")
    cfg = build_config(overrides=dict.fromkeys(keys, "0"))
    naf = cfg.naf
    assert (naf.explore_steps, naf.noise_decay_steps, naf.noise_sigma_start,
            naf.noise_sigma_end, cfg.workload.scan_mean) == (0, 0, 0.0, 0.0, 0.0)


def test_configs_are_checked_when_built():
    # a config or section built in Python is checked like one built from keys
    cfg = build_config()
    with pytest.raises(ValueError, match="bench.runs must be >= 1"):
        dataclasses.replace(cfg, runs=0)  # NafConfig(ttl_min=0.0): test_nafagent.py
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.runs = 0
    for cls in (ExperimentConfig, WorkloadSpec, LatencyModel, NafConfig, RewardConfig):
        assert not hasattr(cls, "validate")


def test_section_keys_apply_together_in_any_order():
    # record_count 10 with the default result_cap 20, or ttl_max 0.5 with the
    # default ttl_min 1, is invalid: each section is built once from all its keys
    cfg = build_config(file_kv={"workload.record_count": "10", "workload.result_cap": "5",
                                "naf.ttl_max": "0.5", "naf.ttl_min": "0.1"})
    assert (cfg.workload.record_count, cfg.workload.result_cap) == (10, 5)
    assert (cfg.naf.ttl_min, cfg.naf.ttl_max) == (0.1, 0.5)


def test_presets_restate_no_default():
    # a preset key parsed to its default value would be a second copy of it
    default = build_config()
    for preset, kv in PRESETS.items():
        for key, raw in kv.items():
            assert build_config(overrides={key: raw}) != default, f"{preset} restates {key}"
    desk = build_config(preset="desk")
    assert (desk.workload.record_count, desk.workload.query_count, desk.capacity, desk.runs,
            desk.workload.target_throughput, desk.workload.duration) == (2000, 200, 160, 3, 200.0, 300.0)


def test_estimator_options_checked_at_build_time():
    with pytest.raises(ValueError, match="fixed ttl must be positive"):
        build_config(overrides={"estimator.kind": "poisson,fixed", "estimator.fixed_ttl": "0"})
    with pytest.raises(ValueError, match="max_ttl must be positive"):
        build_config(overrides={"estimator.kind": "poisson", "estimator.max_ttl": "-1"})
    # an option of an estimator outside the grid is never used
    build_config(overrides={"estimator.kind": "naf-dei", "estimator.fixed_ttl": "0",
                            "estimator.max_ttl": "0"})


FLOAT_KEYS = [k for k, (_, parse) in SCHEMA.items() if parse is _parse_float]


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", [*FLOAT_KEYS, "workload.write_fraction"])
def test_non_finite_settings_fail_where_they_enter(key, raw):
    # fixed and poisson in the grid, so their options are used
    with pytest.raises(ValueError, match=f"bad value for {re.escape(key)}: expected a finite number"):
        build_config(overrides={"estimator.kind": "fixed,poisson", key: raw})


def test_float_keys_cover_every_float_setting():
    assert len(FLOAT_KEYS) == 20
    for key in ("workload.duration", "latency.origin_rtt_ms", "estimator.max_ttl",
                "estimator.fixed_ttl", "workload.query_fraction", "telemetry.window"):
        assert key in FLOAT_KEYS
    with pytest.raises(ValueError, match="workload.write_fraction: expected a finite"):
        build_config(overrides={"workload.write_fraction": "0.1,nan"})


SECTION_FLOATS = [
    (cls, f.name)
    for cls in (WorkloadSpec, LatencyModel, NafConfig, RewardConfig)
    for f in dataclasses.fields(cls)
    if f.type == "float"
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(("cls", "name"), SECTION_FLOATS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in SECTION_FLOATS])
def test_section_validators_reject_non_finite_floats(cls, name, value):
    # A section built in Python, not parsed from keys, must fail the same way.
    with pytest.raises(ValueError, match=f"{name} must be a finite number"):
        dataclasses.replace(cls(), **{name: value})


def test_section_float_fields_are_all_parametrized():
    assert len(SECTION_FLOATS) == 18
    assert (NafConfig, "lr") in SECTION_FLOATS and (WorkloadSpec, "duration") in SECTION_FLOATS


def test_config_derived_objects():
    cfg = build_config(overrides={
        "latency.edge_rtt_ms": "8",
        "latency.origin_rtt_ms": "100",
        "reward.r0": "3",
    })
    lat = cfg.latency
    assert lat.hit_latency == pytest.approx(0.008)
    assert lat.miss_latency == pytest.approx(0.108)
    assert cfg.reward == RewardConfig(r0=3.0)

    spec = cfg.workload_spec(0.25)
    assert spec.write_fraction == 0.25
    assert spec.query_fraction == pytest.approx(0.75)  # defaults to 1 - w
    qf = build_config(overrides={"workload.query_fraction": "0.5"})
    assert qf.workload_spec(0.25).query_fraction == 0.5

    naf = build_config(overrides={"naf.lr": "0.001", "naf.ttl_max": "90"}).naf
    assert naf.lr == 0.001 and naf.ttl_max == 90.0


# ---------------------------------------------------------------------------
# the CLI end to end


TINY_FILE = """
workload.record_count = 300
workload.query_count = 60
workload.duration = 20
workload.target_throughput = 120
cache.capacity = 48
bench.runs = 2
estimator.kind = poisson, fixed
"""


def _read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_file = root / "exp.cfg"
    cfg_file.write_text(TINY_FILE)
    out = root / "results"
    rc = main(["run", "--config", str(cfg_file), "--out-dir", str(out), "--seed", "5"])
    assert rc == 0
    return out


def test_cli_writes_all_artifacts(cli_run):
    for name in ("per_run.csv", "summary.csv", "trace.csv", "cdf.csv", "querytrace.csv"):
        assert (cli_run / name).exists(), name
    assert not (cli_run / "replay_log.csv").exists()  # opt-in only


def test_cli_per_run_schema_and_values(cli_run):
    header, rows = _read_csv(cli_run / "per_run.csv")
    assert header == PER_RUN_HEADER
    assert len(rows) == 4  # 1 write fraction x 2 estimators x 2 runs
    for row in rows:
        rec = dict(zip(header, row))
        assert rec["estimator"] in ("poisson", "fixed")
        assert int(rec["seed"]) == 5 + int(rec["run"])
        assert 0.0 <= float(rec["hit_rate"]) <= 1.0
        assert 0.0 <= float(rec["invalidation_rate"]) <= 1.0
        assert int(rec["hits"]) + int(rec["misses"]) > 0


def test_cli_summary_schema_and_averages(cli_run):
    header, rows = _read_csv(cli_run / "summary.csv")
    assert header == SUMMARY_HEADER
    assert len(rows) == 2  # one per (write fraction, estimator) cell

    _, per_rows = _read_csv(cli_run / "per_run.csv")
    for row in rows:
        rec = dict(zip(header, row))
        mine = [dict(zip(PER_RUN_HEADER, r)) for r in per_rows
                if r[1] == rec["estimator"]]
        assert int(rec["runs"]) == len(mine) == 2
        hit_mean = np.mean([float(m["hit_rate"]) for m in mine])
        assert float(rec["hit_rate_mean"]) == pytest.approx(hit_mean, abs=1e-9)
        rmse_mean = np.mean([float(m["truncated_rmse"]) for m in mine])
        assert float(rec["truncated_rmse_mean"]) == pytest.approx(rmse_mean, rel=1e-9)
        assert 0.0 <= float(rec["hit_rate_mean"]) <= 1.0
        assert 0.0 <= float(rec["invalidation_rate_mean"]) <= 1.0
        # the hindsight default column is shared per write-fraction cell
        assert float(rec["best_default_ttl"]) in (1.0, 2.0, 5.0, 10.0, 20.0,
                                                  30.0, 60.0, 120.0, 300.0, 600.0)
        # published full-scale numbers ride along for the poisson w=0.1 cell
        if rec["estimator"] == "poisson":
            assert float(rec["paper_hit_rate"]) == 0.795
            assert float(rec["paper_invalidation_rate"]) == 0.068
        else:
            assert rec["paper_hit_rate"] == ""


def test_cell_with_no_resolved_serve_summarizes_nan_rmse(tmp_path):
    # at w = 0 nothing is written, so no serve resolves and every run's RMSE is
    # NaN; the summary reports nan without numpy's empty-slice warning
    cfg = build_config(overrides={"workload.write_fraction": "0", "workload.duration": "5",
                                  "bench.runs": "2", "estimator.kind": "poisson"})
    lines = []
    run_experiment(cfg, tmp_path, echo=lines.append)
    header, rows = _read_csv(tmp_path / "summary.csv")
    rec = dict(zip(header, rows[0]))
    assert (rec["truncated_rmse_mean"], rec["truncated_rmse_std"]) == ("nan", "nan")
    assert float(rec["resolved_mean"]) == 0.0
    assert any(line.startswith("w=0 poisson: rmse nan+-nan") for line in lines)


def test_cli_trace_schema(cli_run):
    header, rows = _read_csv(cli_run / "trace.csv")
    assert header == ["time", "kind", "unit", "outcome", "latency_s"]
    assert rows
    outcomes = {r[3] for r in rows}
    assert outcomes <= {"hit", "stale_hit", "miss", "write"}
    lats = {r[4] for r in rows}
    assert lats <= {"0.004", "0.154"}


def _csv_writer_bytes(rows):
    """A trace.csv body as csv.writer writes each row after _fmt on its cells."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    for row in rows:
        w.writerow([_fmt(c) for c in row])
    return buf.getvalue()


def test_trace_row_format_equals_csv_writer(tiny_cfg):
    assert TRACE_HEADER == _csv_writer_bytes([["time", "kind", "unit", "outcome", "latency_s"]])
    rows = [
        (0.0, "read", 0, "miss", 0.154),
        (1e-05, "query", 17, "hit", 0.004),
        (1e+20, "update", 2199, "write", 1e-05),
        (123456.78901234568, "read", 12, "stale_hit", 0.15400000000000003),
        (299.99999999999994, "query", 3, "miss", 5e-324),
        (2.5e-07, "read", 10**6, "hit", 1e+16),
    ]
    run_single(tiny_cfg, 0.3, "poisson", 2, trace_writer=rows.append)
    assert len(rows) > 1000
    assert "".join(TRACE_ROW % row for row in rows) == _csv_writer_bytes(rows)


SPECIAL_FLOATS = [0.0, float("nan"), 1e-05, 1e+20, 5e-324, -2.5e-07, 123456.78901234568, float("inf")]


def _as_run_result(x: float, i: int) -> RunResult:
    cells = [x if f.type == "float" else i + 10**k for k, f in enumerate(dataclasses.fields(RunResult))]
    cells[1] = "naf-dei"
    return RunResult(*cells)


def test_csv_row_formats_equal_csv_writer():
    """Each artifact's one-format rows against csv.writer with _fmt on every cell."""
    for i, x in enumerate(SPECIAL_FLOATS):
        row = dataclasses.astuple(_as_run_result(x, i))
        assert PER_RUN_ROW % row == _csv_writer_bytes([row])
        assert CDF_ROW % ("optimal", x, x) == _csv_writer_bytes([("optimal", x, x)])
        replay = (x, "naf-naive", 7 + i, 10**6 + i, x, x, x, x)
        assert REPLAY_ROW % replay == _csv_writer_bytes([replay])
        # summary.csv and querytrace.csv: blank cells go through _fmt first
        for ref in (x, ""):
            summary = (x, "poisson", 3, *[x] * 12, ref, ref)
            built = (*summary[:-2], _fmt(ref), _fmt(ref))
            assert SUMMARY_ROW % built == _csv_writer_bytes([summary])
            trace = (i, 10**12 + i, x, x, ref)
            assert QUERYTRACE_ROW % (*trace[:-1], _fmt(ref)) == _csv_writer_bytes([trace])
    for header in (PER_RUN_HEADER, SUMMARY_HEADER, CDF_HEADER, QUERYTRACE_HEADER, REPLAY_HEADER):
        assert ",".join(header) + "\r\n" == _csv_writer_bytes([header])


def test_cli_cdf_series(cli_run):
    header, rows = _read_csv(cli_run / "cdf.csv")
    assert header == ["series", "value", "cum_fraction"]
    series = {r[0] for r in rows}
    assert series == {"poisson", "optimal"}  # no learned estimator in this grid
    for name in series:
        fracs = [float(r[2]) for r in rows if r[0] == name]
        assert fracs == sorted(fracs)
        assert fracs[-1] == pytest.approx(1.0)


def test_cli_querytrace_schema(cli_run):
    header, rows = _read_csv(cli_run / "querytrace.csv")
    assert header == ["unit", "observation", "time", "action", "true_ttl"]
    assert rows, "auto-trace should find a missed query"
    units = {r[0] for r in rows}
    assert len(units) == 1  # one traced query
    times = [float(r[2]) for r in rows]
    assert times == sorted(times)
    assert [int(r[1]) for r in rows] == list(range(len(rows)))
    for r in rows:
        assert r[4] == "" or float(r[4]) >= 0.0  # censored stays blank, never 0


def test_cli_learned_run_extras(tmp_path):
    cfg = build_config(overrides={
        "workload.record_count": "300",
        "workload.query_count": "60",
        "workload.duration": "20",
        "workload.target_throughput": "120",
        "cache.capacity": "48",
        "bench.runs": "1",
        "estimator.kind": "naf-dei",
        "naf.explore_steps": "50",
        "naf.ttl_max": "60",
        "bench.replay_log": "true",
    })
    run_experiment(cfg, out_dir=tmp_path, echo=lambda *a: None)

    header, rows = _read_csv(tmp_path / "cdf.csv")
    assert {r[0] for r in rows} == {"learned", "optimal"}

    header, rows = _read_csv(tmp_path / "replay_log.csv")
    assert header == ["write_fraction", "estimator", "serve_id", "unit",
                      "decided_at", "due_at", "action", "reward"]
    assert rows
    for r in rows:
        assert r[1] == "naf-dei"
        decided, due, action = float(r[4]), float(r[5]), float(r[6])
        # injection lands at the due instant (within CSV formatting precision)
        assert due == pytest.approx(decided + action, rel=1e-8)
        float(r[7])  # reward parses


def test_single_run_artifacts_come_from_the_chosen_runs(tiny_cfg, tmp_path):
    cfg = dataclasses.replace(
        tiny_cfg, runs=2, estimators=("fixed", "naf-naive", "poisson"),
        write_fractions=(0.3, 0.1), replay_log=True,
    )
    run_experiment(cfg, out_dir=tmp_path, echo=lambda *a: None)
    with open(tmp_path / "per_run.csv") as fh:
        per_run = {(r["write_fraction"], r["estimator"], r["run"]): r
                   for r in csv.DictReader(fh)}

    # trace.csv: run 0 of the first cell
    _, trace = _read_csv(tmp_path / "trace.csv")
    first = per_run[("0.3", "fixed", "0")]
    assert len(trace) == round(float(first["achieved_throughput"]) * cfg.workload.duration)
    assert sum(r[3] in ("hit", "stale_hit") for r in trace) == int(first["hits"])
    assert sum(r[3] == "miss" for r in trace) == int(first["misses"])

    # cdf.csv: run 0 of the first write fraction, learned from naf-naive
    _, cdf = _read_csv(tmp_path / "cdf.csv")
    series = {name: [r[1] for r in cdf if r[0] == name]
              for name in ("learned", "poisson", "optimal")}
    learned = per_run[("0.3", "naf-naive", "0")]
    assert len(series["learned"]) == int(learned["misses"])
    assert len(series["poisson"]) == int(per_run[("0.3", "poisson", "0")]["misses"])
    assert len(series["optimal"]) == int(learned["resolved"])

    # querytrace.csv: the naf-naive run's actions, not Poisson's
    _, qt = _read_csv(tmp_path / "querytrace.csv")
    actions = {r[3] for r in qt}
    assert actions and actions <= set(series["learned"])
    assert not actions <= set(series["poisson"])

    # replay_log.csv: run 0 of every learned cell
    _, replay = _read_csv(tmp_path / "replay_log.csv")
    assert {(r[0], r[1]) for r in replay} == {("0.3", "naf-naive"), ("0.1", "naf-naive")}


def test_cli_trace_query_none(tmp_path):
    cfg = build_config(overrides={
        "workload.record_count": "300",
        "workload.query_count": "60",
        "workload.duration": "10",
        "workload.target_throughput": "100",
        "cache.capacity": "48",
        "bench.runs": "1",
        "estimator.kind": "fixed",
        "bench.trace_query": "none",
    })
    run_experiment(cfg, out_dir=tmp_path, echo=lambda *a: None)
    assert not (tmp_path / "querytrace.csv").exists()


def test_cli_rerun_is_byte_identical(tmp_path):
    overrides = {
        "workload.record_count": "300",
        "workload.query_count": "60",
        "workload.duration": "15",
        "workload.target_throughput": "120",
        "cache.capacity": "48",
        "bench.runs": "2",
        "estimator.kind": "poisson,fixed",
    }
    outs = []
    for sub in ("a", "b"):
        cfg = build_config(overrides=dict(overrides))
        run_experiment(cfg, out_dir=tmp_path / sub, echo=lambda *a: None)
        outs.append(tmp_path / sub)
    for name in ("per_run.csv", "summary.csv", "trace.csv", "cdf.csv", "querytrace.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_cli_error_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("cache.capcity = 7\n")
    assert main(["run", "--config", str(bad)]) == 2
    assert "unknown config key" in capsys.readouterr().err

    missing = tmp_path / "nope.cfg"
    assert main(["run", "--config", str(missing)]) == 2
    assert "error:" in capsys.readouterr().err


def test_package_exports_only_build_config():
    public = {name for name, obj in vars(ttl_lab).items()
              if not name.startswith("_") and not inspect.ismodule(obj)}
    assert public == {"build_config"}
    assert ttl_lab.__version__ == "0.1.0"


def test_module_entry_point_runs_without_warnings():
    # importing the package must not import benchcli before `-m` runs it
    env = {**os.environ, "PYTHONPATH": str(Path(ttl_lab.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "ttl_lab.benchcli", "--help"],
                          env=env, capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr


def test_cli_check_passes():
    assert main(["check"]) == 0


def test_cli_estimator_flag_overrides(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(TINY_FILE)
    out = tmp_path / "results"
    rc = main(["run", "--config", str(cfg_file), "--estimator", "fixed",
               "--runs", "1", "--out-dir", str(out)])
    assert rc == 0
    _, rows = _read_csv(out / "per_run.csv")
    assert len(rows) == 1
    assert rows[0][1] == "fixed"
