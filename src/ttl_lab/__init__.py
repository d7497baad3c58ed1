"""ttl-lab: a desk-scale laboratory for learned cache TTLs.

A discrete-event CDN model (clients, edge cache, origin with asynchronous
invalidation) drives TTL estimators: a Poisson write-rate baseline and a NAF
reinforcement learner whose transitions complete via delayed experience
injection. A true-TTL oracle scores every decision after the fact.
"""

from .benchcli import DEFAULT_TTL_GRID, best_default_ttl
from .cachesys import CacheStats, CacheSystem, Lookup, RangeSet
from .config import ExperimentConfig, build_config, parse_kv_file
from .dei import DeiQueue, IncompleteTransition, RewardConfig, transition_reward
from .estimators import (
    FixedEstimator,
    NafDeiEstimator,
    NafNaiveEstimator,
    PoissonEstimator,
    make_estimator,
    poisson_ttl,
)
from .nafagent import NafAgent, NafConfig, Transition, build_state
from .neural import Mlp, adam_step, backward, forward, init_mlp
from .simcore import Engine, LatencyModel, SimEvent, Simulation
from .telemetry import Telemetry, TrueTtlOracle
from .workload import OpStream, WorkloadSpec, ZipfSampler, evaluate_query, generate_world

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TTL_GRID", "best_default_ttl",
    "CacheStats", "CacheSystem", "Lookup", "RangeSet",
    "ExperimentConfig", "build_config", "parse_kv_file",
    "DeiQueue", "IncompleteTransition", "RewardConfig", "transition_reward",
    "FixedEstimator", "NafDeiEstimator", "NafNaiveEstimator",
    "PoissonEstimator", "make_estimator", "poisson_ttl",
    "NafAgent", "NafConfig", "Transition", "build_state",
    "Mlp", "adam_step", "backward", "forward", "init_mlp",
    "Engine", "LatencyModel", "SimEvent", "Simulation",
    "Telemetry", "TrueTtlOracle",
    "OpStream", "WorkloadSpec", "ZipfSampler", "evaluate_query", "generate_world",
    "__version__",
]

