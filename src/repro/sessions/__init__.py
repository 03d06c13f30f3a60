"""Session workloads: multi-turn conversations over the LoadGen core.

Three pieces, one seeded contract (``docs/sessions.md``):

* :mod:`~repro.sessions.replay` generates the deterministic per-user
  replay graph - turn counts, think times, prefix growth - every draw
  keyed by ``SeedSequence((seed, user_id, 0x5E55))``.
* :mod:`~repro.sessions.driver` is the ``Scenario.SESSION`` driver:
  Poisson session arrivals, strictly ordered turns (turn N+1 issues
  only after turn N's answer plus think time).
* :mod:`~repro.sessions.cache` is the shared-prefix cache stand-in
  whose hit/miss/eviction trail the referee audits against the graph.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "cache": (
        "CacheEvent", "CacheStats", "PrefixCacheSUT", "audit_cache_events",
        "audit_replica_caches", "per_replica_cache_factory",
    ),
    "driver": ("SessionDriver",),
    "replay": (
        "SESSION_TAG", "ReplayGraph", "SessionPlan", "SessionProfile",
        "TurnPlan", "replay_graph_from_settings",
    ),
})
