"""Persistent result store and resumable exploration campaigns.

This package makes evaluated design points durable, shared artifacts:

* :class:`~repro.store.result_store.ResultStore` — an SQLite-backed,
  content-addressed store of evaluated ``(spec, model-params, tech)``
  triples with atomic writes and schema versioning.  A store-backed
  evaluation engine writes each batch of computed misses through to it
  before caching them, and never reads it back: recomputing a design
  with the closed-form model is cheaper than loading it, so the store is
  the durable, queryable record (``query designs``), not a cache.
* :mod:`~repro.store.campaign` — named, checkpointed NSGA-II
  exploration campaigns (generation snapshots + RNG state) that can be
  killed and resumed bit-identically, driven through
  :meth:`repro.api.Session.campaign` and the CLI's
  ``campaign run / resume / list / query``.
* the ``artifacts`` table — content-addressed physical-pipeline
  artifacts (solved macros), see ``docs/physical.md``.

See ``docs/campaigns.md`` for the store layout, write-through semantics
and resume guarantees.
"""

from repro.store.campaign import (
    CampaignResult,
    record_exploration,
)
from repro.store.result_store import (
    RANK_METRICS,
    SCHEMA_VERSION,
    CampaignRecord,
    ResultStore,
    StoredEvaluation,
    canonical_key,
    key_digest,
    params_digest_of,
)

__all__ = [
    "CampaignRecord",
    "CampaignResult",
    "RANK_METRICS",
    "ResultStore",
    "SCHEMA_VERSION",
    "StoredEvaluation",
    "canonical_key",
    "key_digest",
    "params_digest_of",
    "record_exploration",
]
