"""The service-oriented public API: sessions, typed messages, registries.

* :mod:`repro.api.session` -- :class:`TuningSession`, the long-lived tuning
  service (warm catalogs, caches and compiled layouts; incremental
  re-tuning).
* :mod:`repro.api.requests` -- the typed request/response dataclasses the
  session speaks.
* :mod:`repro.api.registry` -- plugin registries for cost models,
  selectors, engines, cache builders and candidate policies.
* :mod:`repro.api.serve` -- the newline-delimited-JSON ``repro serve``
  frontend (stdio, one client).
* :mod:`repro.api.server` -- the concurrent asyncio TCP server
  (``repro serve --tcp``) and its reference client.
* :mod:`repro.api.tier` -- the process-wide shared read-only cache tier
  concurrent sessions publish their builds into.

Attributes resolve lazily (PEP 562): low-level modules import
``repro.api.registry`` during their own initialisation, so this package
must stay import-light and free of eager dependencies on the session
machinery.
"""

from __future__ import annotations

import importlib
from typing import Any

#: Public attribute -> defining submodule.  ``from repro.api import X``
#: resolves through :func:`__getattr__` below.
_EXPORTS = {
    # registry
    "Registry": "repro.api.registry",
    "EngineSpec": "repro.api.registry",
    "COST_MODELS": "repro.api.registry",
    "SELECTORS": "repro.api.registry",
    "ENGINES": "repro.api.registry",
    "CACHE_BUILDERS": "repro.api.registry",
    "CANDIDATE_POLICIES": "repro.api.registry",
    # requests / responses
    "UNSET": "repro.api.requests",
    "RecommendRequest": "repro.api.requests",
    "RecommendResponse": "repro.api.requests",
    "EvaluateRequest": "repro.api.requests",
    "EvaluateResponse": "repro.api.requests",
    "WhatIfRequest": "repro.api.requests",
    "WhatIfResponse": "repro.api.requests",
    "ExplainRequest": "repro.api.requests",
    "ExplainResponse": "repro.api.requests",
    "WorkloadResponse": "repro.api.requests",
    "index_to_dict": "repro.api.requests",
    "index_from_dict": "repro.api.requests",
    # session
    "TuningSession": "repro.api.session",
    "SessionStatistics": "repro.api.session",
    "CandidatePlan": "repro.api.session",
    "workload_candidate_policy": "repro.api.session",
    "per_query_candidate_policy": "repro.api.session",
    # serve
    "ServeFrontend": "repro.api.serve",
    # concurrent server + shared tier
    "TuningServer": "repro.api.server",
    "TuningClient": "repro.api.server",
    "SharedCacheTier": "repro.api.tier",
    "TierNamespace": "repro.api.tier",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.api' has no attribute {name!r}")
    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(_EXPORTS))
