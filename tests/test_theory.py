"""The simulator's hit ratio against renewal theory.

With point reads and writes only, a fixed TTL T, invalidations that land at
once and a cache with a slot for every unit, each key's cache entry lives
through independent renewal cycles: a miss inserts the entry, which stays
valid for L = min(T, time to the key's next write), and the first read after
it dies misses again. Reads and writes of key k draw their key from the same
Zipf sampler, so both are Poisson, with rates lam_k = (1 - w) Lambda p_k and
mu_k = w Lambda p_k. Key k's reads then hit with probability
h_k = lam_k E[L_k] / (1 + lam_k E[L_k]), with E[L_k] = (1 - e^{-mu_k T}) / mu_k
(Jung, Berger & Balakrishnan, INFOCOM 2003), and the predicted hit ratio is
sum lam_k h_k / sum lam_k.
"""

from __future__ import annotations

import numpy as np
import pytest

from ttl_lab.benchcli import run_single
from ttl_lab.config import build_config
from ttl_lab.workload import ZipfSampler

RECORDS, QUERIES, RATE, ZIPF_S, TTL = 100, 10, 200.0, 0.6, 5.0

# Seeds 1-5 of each cell, 1,000 s: single-seed gaps at most 0.0015; the
# mean gap over the five seeds is at most 0.0004 in size.
TOLERANCE = 0.003


def predicted_hit_ratio(w: float, ttl: float, mean_life=None) -> float:
    p = ZipfSampler(RECORDS, ZIPF_S).pmf()
    lam, mu = (1.0 - w) * RATE * p, w * RATE * p
    life = (1.0 - np.exp(-mu * ttl)) / mu if mean_life is None else mean_life(mu, ttl)
    h = lam * life / (1.0 + lam * life)
    return float(np.sum(lam * h) / np.sum(lam))


@pytest.mark.parametrize("w", [0.1, 0.3])
def test_fixed_ttl_hit_ratio_matches_renewal_theory(w):
    cfg = build_config(overrides={
        "workload.record_count": str(RECORDS),
        "workload.query_count": str(QUERIES),
        "workload.query_fraction": "0",
        "workload.zipf_s": str(ZIPF_S),
        "workload.target_throughput": str(RATE),
        "workload.duration": "1000",
        "workload.write_fraction": str(w),
        "latency.invalidation_delay_ms": "0",
        "cache.capacity": str(RECORDS + QUERIES),  # nothing is evicted
        "estimator.kind": "fixed",
        "estimator.fixed_ttl": str(TTL),
    })
    res, _ = run_single(cfg, w, "fixed", seed=1)
    assert res.evictions == 0 and res.stale_reads == 0

    expected = predicted_hit_ratio(w, TTL)
    assert expected < (1.0 - w) - 0.01  # below the plateau an unbounded TTL reaches
    assert res.hit_rate == pytest.approx(expected, abs=TOLERANCE)
    # an entry that lived its whole TTL, ignoring writes, is far off
    no_writes = predicted_hit_ratio(w, TTL, mean_life=lambda mu, ttl: np.full_like(mu, ttl))
    assert abs(res.hit_rate - no_writes) > 10 * TOLERANCE
