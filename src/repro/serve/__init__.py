"""The verdict service: a long-lived asyncio daemon serving litmus
verdicts over HTTP/JSON (``ptxmm serve``), plus its thin client.

Layering (each module usable on its own):

* :mod:`repro.serve.protocol` — request schemas, validation, and the
  content-addressed request key (the same key the on-disk cache uses);
* :mod:`repro.serve.store` — the sharded two-level verdict store:
  bounded in-memory LRU in front of the on-disk content-addressed cache;
* :mod:`repro.serve.coalesce` — in-flight request coalescing: identical
  queries share one computation via a keyed future table;
* :mod:`repro.serve.service` — the service core: admission control
  (bounded queue, 503 back-pressure), per-request deadlines, the
  :class:`~repro.litmus.session.Session`-backed compute path, stats;
* :mod:`repro.serve.http` — the stdlib asyncio HTTP/1.1 front end and
  graceful SIGTERM shutdown;
* :mod:`repro.serve.client` — a blocking client (``ptxmm client``).

Everything is standard library only; the service exists so later scale
work (fuzzing-farm fan-out, remote cache tiers) has a skeleton to plug
into.
"""

from .._lazy import attach

_LAZY = {
    "ApiError": "protocol",
    "Client": "client",
    "Coalescer": "coalesce",
    "REQUEST_LIMIT_BYTES": "protocol",
    "ServeConfig": "service",
    "ServiceError": "client",
    "ServiceSaturated": "client",
    "StoreStats": "store",
    "VerdictService": "service",
    "VerdictStore": "store",
    "request_key": "protocol",
    "serve_forever": "http",
    "start_in_thread": "http",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = attach(__name__, _LAZY)
