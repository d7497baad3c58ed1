"""Experiment configuration: flat key=value files, presets, CLI overrides.

Precedence is defaults < preset < config file < CLI flags. Every key is
validated against the schema below, and each section and ExperimentConfig
check their settings when built, from keys or from Python: a typo or a bad
value fails loudly where it enters instead of silently running the wrong
experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .cachesys import CacheSystem
from .dei import RewardConfig
from .estimators import make_estimator
from .nafagent import NafConfig
from .simcore import LatencyModel
from .telemetry import Telemetry
from .workload import WorkloadSpec

ESTIMATOR_KINDS = ("poisson", "naf-dei", "naf-naive", "fixed")


def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("true", "yes", "1", "on"):
        return True
    if v in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _parse_float(s: str) -> float:
    """A finite float. NaN passes every comparison-based range check and inf
    passes the lower bounds, so both are rejected here, where they enter."""
    v = float(s)
    if not math.isfinite(v):
        raise ValueError(f"expected a finite number, got {s.strip()!r}")
    return v


def _parse_list(item, what: str):
    """A parser for a non-empty comma-separated list of `item` values."""

    def parse(s: str) -> tuple:
        vals = tuple(item(p.strip()) for p in s.split(",") if p.strip())
        if not vals:
            raise ValueError(f"expected at least one {what}")
        return vals

    return parse


# annotation of a section's field -> parser for its key
_PARSERS = {"int": int, "float": _parse_float, "str": str, "tuple[int, ...]": _parse_list(int, "integer")}


def _section_keys(section: str, cls, derived: tuple[str, ...] = ()) -> dict[str, tuple[str, object]]:
    """One key per dataclass field, parsed by the field's annotated type; a
    derived field, which the config sets from other settings, has no key."""
    return {
        f"{section}.{f.name}": (f"{section}.{f.name}", _PARSERS[f.type])
        for f in fields(cls) if f.name not in derived
    }


# key -> (attribute on ExperimentConfig, parser). A dotted attribute names a field
# of a section, ExperimentConfig.workload (WorkloadSpec), .latency (LatencyModel),
# .naf (NafConfig) or .reward (RewardConfig), whose fields are the keys and defaults;
# workload.write_fraction (a list) and .query_fraction are set per cell by workload_spec,
# and reward_config sets each cell's load_threshold to 1 - w
SCHEMA: dict[str, tuple[str, object]] = {
    **_section_keys("workload", WorkloadSpec),
    "workload.write_fraction": ("write_fractions", _parse_list(_parse_float, "number")),
    "workload.query_fraction": ("query_fraction", _parse_float),
    "cache.capacity": ("capacity", int),
    **_section_keys("latency", LatencyModel),
    "telemetry.window": ("telemetry_window", _parse_float),
    **_section_keys("naf", NafConfig),
    **_section_keys("reward", RewardConfig, derived=("load_threshold",)),
    "estimator.kind": ("estimators", _parse_list(str, "name")),
    "estimator.fixed_ttl": ("fixed_ttl", _parse_float),
    "estimator.max_ttl": ("poisson_max_ttl", _parse_float),
    "bench.runs": ("runs", int),
    "bench.base_seed": ("base_seed", int),
    "bench.replay_log": ("replay_log", _parse_bool),
    "bench.trace_query": ("trace_query", str),
    "bench.out_dir": ("out_dir", str),
}

PRESETS: dict[str, dict[str, str]] = {
    # Seconds-scale sanity runs on a laptop: the defaults plus learner settings.
    "desk": {
        "naf.ttl_max": "60",
        "naf.explore_steps": "300",
        "naf.noise_sigma_start": "5",
        "naf.noise_sigma_end": "0.5",
        "naf.noise_decay_steps": "4000",
        "reward.r0": "2",
    },
    # The full-scale setup the headline numbers come from.
    "paper": {
        "workload.record_count": "10000",
        "workload.query_count": "1000",
        "workload.target_throughput": "1000",
        "workload.duration": "1800",
        "cache.capacity": "800",
        "bench.runs": "5",
        "naf.explore_steps": "2000",
        "naf.noise_decay_steps": "30000",
        # the flat form's expected reward peaks at naf.ttl_min (see dei.py)
        "reward.form": "survival",
        "reward.r0": "4.5",
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    # workload (write_fractions sweeps cells; query share defaults to 1 - w)
    workload: WorkloadSpec = WorkloadSpec()
    write_fractions: tuple[float, ...] = (0.1,)
    query_fraction: float | None = None
    # cache and network
    capacity: int = 160
    latency: LatencyModel = LatencyModel()
    telemetry_window: float = 60.0
    # agent and reward
    naf: NafConfig = NafConfig()
    reward: RewardConfig = RewardConfig()
    # bench
    estimators: tuple[str, ...] = ("poisson", "naf-dei")
    fixed_ttl: float = 60.0
    poisson_max_ttl: float = 300.0
    runs: int = 3
    base_seed: int = 1
    replay_log: bool = False
    trace_query: str = "auto"  # "auto" | "none" | a query id
    out_dir: str = "results"

    def __post_init__(self) -> None:
        for est in self.estimators:
            if est not in ESTIMATOR_KINDS:
                raise ValueError(f"unknown estimator {est!r}; choose from {ESTIMATOR_KINDS}")
            if est in ("fixed", "poisson"):  # their constructors check their options
                make_estimator(est, fixed_ttl=self.fixed_ttl, poisson_max_ttl=self.poisson_max_ttl)
        if self.runs < 1:
            raise ValueError("bench.runs must be >= 1")
        if self.base_seed < 0:
            raise ValueError("bench.base_seed must be >= 0")
        if self.trace_query not in ("auto", "none"):
            try:
                qid = int(self.trace_query)
            except ValueError:
                raise ValueError("bench.trace_query must be 'auto', 'none' or a query id") from None
            if not (0 <= qid < self.workload.query_count):
                raise ValueError(f"bench.trace_query {qid} outside [0, {self.workload.query_count})")
        for w in self.write_fractions:
            try:
                self.workload_spec(w)
                self.reward_config(w)
            except ValueError as e:
                raise ValueError(f"write fraction {w}: {e}") from None
        # the bounds a run would enforce
        CacheSystem(self.capacity)
        Telemetry(self.telemetry_window)

    def workload_spec(self, write_fraction: float) -> WorkloadSpec:
        qf = 1.0 - write_fraction if self.query_fraction is None else self.query_fraction
        return replace(self.workload, write_fraction=write_fraction, query_fraction=qf)

    def latency_model(self) -> LatencyModel:
        """`latency`, kept only for perfbench/worker.py until it reads the field."""
        return self.latency

    @property
    def duration(self) -> float:
        """`workload.duration`, kept only for perfbench/worker.py until it reads it."""
        return self.workload.duration

    def reward_config(self, write_fraction: float) -> RewardConfig:
        return replace(self.reward, load_threshold=1.0 - write_fraction)


def parse_kv_file(path: str | Path) -> dict[str, str]:
    """Read a key=value config; '#' starts a comment, blank lines are skipped."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def build_config(
    preset: str | None = None,
    file_kv: dict[str, str] | None = None,
    overrides: dict[str, str] | None = None,
) -> ExperimentConfig:
    """Merge preset, file and override key maps into a checked config. Each
    section is built once from its parsed keys, so no half-applied state is checked."""
    merged: dict[str, str] = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ValueError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
        merged.update(PRESETS[preset])
    merged.update(file_kv or {})
    merged.update(overrides or {})

    top: dict[str, object] = {}
    sections: dict[str, dict[str, object]] = {}
    for key, raw in merged.items():
        if key not in SCHEMA:
            raise ValueError(f"unknown config key {key!r}")
        attr, cast = SCHEMA[key]
        try:
            value = cast(raw)
        except ValueError as e:
            raise ValueError(f"bad value for {key}: {e}") from None
        section, _, name = attr.rpartition(".")
        if section:
            sections.setdefault(section, {})[name] = value
        else:
            top[attr] = value
    for section, values in sections.items():
        top[section] = replace(getattr(ExperimentConfig, section), **values)
    return ExperimentConfig(**top)
