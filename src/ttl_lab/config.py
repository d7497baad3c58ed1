"""Experiment configuration: flat key=value files, presets, CLI overrides.

Precedence is defaults < preset < config file < CLI flags. Every key is
validated against the schema below; a typo fails loudly with the offending
key and line instead of silently running the wrong experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path

from .dei import RewardConfig
from .nafagent import NafConfig
from .simcore import LatencyModel
from .workload import WorkloadSpec

ESTIMATOR_KINDS = ("poisson", "naf-dei", "naf-naive", "fixed")


def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("true", "yes", "1", "on"):
        return True
    if v in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _parse_list(item, what: str):
    """A parser for a non-empty comma-separated list of `item` values."""

    def parse(s: str) -> tuple:
        vals = tuple(item(p.strip()) for p in s.split(",") if p.strip())
        if not vals:
            raise ValueError(f"expected at least one {what}")
        return vals

    return parse


# annotation of a NafConfig / RewardConfig field -> parser for its key
_PARSERS = {"int": int, "float": float, "str": str, "tuple[int, ...]": _parse_list(int, "integer")}


def _section_keys(section: str, cls) -> dict[str, tuple[str, object]]:
    """One key per dataclass field, parsed by the field's annotated type."""
    return {
        f"{section}.{f.name}": (f"{section}.{f.name}", _PARSERS[f.type]) for f in fields(cls)
    }


# key -> (attribute on ExperimentConfig, parser); a "naf." or "reward." attribute
# names a field of ExperimentConfig.naf (NafConfig) or .reward (RewardConfig)
SCHEMA: dict[str, tuple[str, object]] = {
    "workload.record_count": ("record_count", int),
    "workload.query_count": ("query_count", int),
    "workload.write_fraction": ("write_fractions", _parse_list(float, "number")),
    "workload.query_fraction": ("query_fraction", float),
    "workload.zipf_s": ("zipf_s", float),
    "workload.scan_mean": ("scan_mean", float),
    "workload.scan_std": ("scan_std", float),
    "workload.result_cap": ("result_cap", int),
    "workload.target_throughput": ("target_throughput", float),
    "workload.client_count": ("client_count", int),
    "workload.connections_per_client": ("connections_per_client", int),
    "workload.duration": ("duration", float),
    "cache.capacity": ("capacity", int),
    "latency.edge_rtt_ms": ("edge_rtt_ms", float),
    "latency.origin_rtt_ms": ("origin_rtt_ms", float),
    "latency.invalidation_delay_ms": ("invalidation_delay_ms", float),
    "telemetry.window": ("telemetry_window", float),
    **_section_keys("naf", NafConfig),
    **_section_keys("reward", RewardConfig),
    # not a RewardConfig field: when on, reward_config(w) sets load_threshold to 1 - w
    "reward.adjust_threshold_to_workload": ("reward_adjust_to_workload", _parse_bool),
    "estimator.kind": ("estimators", _parse_list(str, "name")),
    "estimator.fixed_ttl": ("fixed_ttl", float),
    "estimator.max_ttl": ("poisson_max_ttl", float),
    "bench.runs": ("runs", int),
    "bench.base_seed": ("base_seed", int),
    "bench.replay_log": ("replay_log", _parse_bool),
    "bench.trace_query": ("trace_query", str),
    "bench.out_dir": ("out_dir", str),
}

PRESETS: dict[str, dict[str, str]] = {
    # Seconds-scale sanity runs on a laptop.
    "desk": {
        "workload.record_count": "2000",
        "workload.query_count": "200",
        "workload.target_throughput": "200",
        "workload.duration": "300",
        "cache.capacity": "160",
        "bench.runs": "3",
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


@dataclass
class ExperimentConfig:
    # workload (write_fractions sweeps cells; query share defaults to 1 - w)
    record_count: int = 2000
    query_count: int = 200
    write_fractions: tuple[float, ...] = (0.1,)
    query_fraction: float | None = None
    zipf_s: float = 0.6
    scan_mean: float = 10.0
    scan_std: float = 5.0
    result_cap: int = 20
    target_throughput: float = 200.0
    client_count: int = 10
    connections_per_client: int = 6
    duration: float = 300.0
    # cache and network
    capacity: int = 160
    edge_rtt_ms: float = 4.0
    origin_rtt_ms: float = 150.0
    invalidation_delay_ms: float = 2.0
    telemetry_window: float = 60.0
    # agent and reward
    naf: NafConfig = NafConfig()
    reward: RewardConfig = RewardConfig()
    reward_adjust_to_workload: bool = True
    # bench
    estimators: tuple[str, ...] = ("poisson", "naf-dei")
    fixed_ttl: float = 60.0
    poisson_max_ttl: float = 300.0
    runs: int = 3
    base_seed: int = 1
    replay_log: bool = False
    trace_query: str = "auto"  # "auto" | "none" | a query id
    out_dir: str = "results"

    def validate(self) -> None:
        for est in self.estimators:
            if est not in ESTIMATOR_KINDS:
                raise ValueError(f"unknown estimator {est!r}; choose from {ESTIMATOR_KINDS}")
        for w in self.write_fractions:
            if not (0.0 <= w <= 1.0):
                raise ValueError(f"write fraction {w} out of [0, 1]")
        if self.runs < 1:
            raise ValueError("bench.runs must be >= 1")
        if self.trace_query not in ("auto", "none"):
            try:
                qid = int(self.trace_query)
            except ValueError:
                raise ValueError(
                    "bench.trace_query must be 'auto', 'none' or a query id"
                ) from None
            if not (0 <= qid < self.query_count):
                raise ValueError(f"bench.trace_query {qid} outside [0, {self.query_count})")
        self.workload_spec(self.write_fractions[0]).validate()
        self.latency_model().validate()
        self.naf.validate()
        self.reward_config(self.write_fractions[0]).validate()

    def workload_spec(self, write_fraction: float) -> WorkloadSpec:
        if self.query_fraction is None:
            qf = 1.0 - write_fraction
        else:
            qf = self.query_fraction
        return WorkloadSpec(
            record_count=self.record_count,
            query_count=self.query_count,
            write_fraction=write_fraction,
            query_fraction=qf,
            zipf_s=self.zipf_s,
            scan_mean=self.scan_mean,
            scan_std=self.scan_std,
            result_cap=self.result_cap,
            target_throughput=self.target_throughput,
            client_count=self.client_count,
            connections_per_client=self.connections_per_client,
            duration=self.duration,
        )

    def latency_model(self) -> LatencyModel:
        return LatencyModel(
            self.edge_rtt_ms / 1000.0,
            self.origin_rtt_ms / 1000.0,
            self.invalidation_delay_ms / 1000.0,
        )

    def reward_config(self, write_fraction: float) -> RewardConfig:
        if self.reward_adjust_to_workload:
            return replace(self.reward, load_threshold=1.0 - write_fraction)
        return self.reward


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
    """Merge preset, file and override key maps into a validated config."""
    merged: dict[str, str] = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ValueError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
        merged.update(PRESETS[preset])
    merged.update(file_kv or {})
    merged.update(overrides or {})

    cfg = ExperimentConfig()
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
            setattr(cfg, section, replace(getattr(cfg, section), **{name: value}))
        else:
            setattr(cfg, attr, value)
    cfg.validate()
    return cfg
