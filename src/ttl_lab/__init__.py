"""ttl-lab: a desk-scale laboratory for learned cache TTLs.

A discrete-event CDN model (clients, edge cache, origin with asynchronous
invalidation) drives TTL estimators: a Poisson write-rate baseline and a NAF
reinforcement learner whose transitions complete via delayed experience
injection. A true-TTL oracle scores every decision after the fact.
"""

from .config import build_config

__version__ = "0.1.0"
