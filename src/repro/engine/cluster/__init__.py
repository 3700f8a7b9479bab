"""Cluster layer: shard ESTIMA serving across several ``estima serve`` hosts.

The serving stack below this package saturates a single machine (the
pre-fork :class:`~repro.engine.pool.WorkerPool` is the ceiling).  The
pipeline is embarrassingly shardable by its content-addressed digests, so
this package turns N hosts into ~N× capacity without touching the pinned
math:

* :mod:`repro.engine.cluster.ring` — a consistent-hash ring with virtual
  nodes, keyed on the same blake2b digests the cache tiers use.  Placement
  is deterministic and pinned by tests; adding or removing a backend moves
  only the keys adjacent to its virtual nodes.
* :mod:`repro.engine.cluster.remote` — the :class:`BackendPool` client
  machinery the router uses to reach downstream ``estima serve`` NDJSON
  hosts: persistent connections, bounded retries with exponential backoff,
  per-host health and ring failover.
* :mod:`repro.engine.cluster.router` — ``estima route``: an HTTP front-end
  speaking the gateway's exact protocol that shards predict/batch/campaign
  requests across backends by digest and merges streamed campaign rows back
  into request order.
* :mod:`repro.engine.cluster.archive` — ``estima cache export/import``:
  tar-based shipping of warm :class:`~repro.engine.store.DiskStore` entries
  between machines, schema-versioned, digest-verified and optionally
  ring-filtered to one shard's slice.

Import discipline: :mod:`ring` and :mod:`remote` depend only on the leaf
engine modules (``cache``, ``pool``, ``store``), so
``EstimaConfig`` validation may import them without cycles; :mod:`router`
depends on the server/gateway stack and is imported lazily here.
"""

from __future__ import annotations

from .archive import export_store, import_archive
from .remote import (
    BackendPool,
    RemoteRequestError,
    RemoteUnavailableError,
    parse_backends,
)
from .ring import HashRing

__all__ = [
    "BackendPool",
    "HashRing",
    "RemoteRequestError",
    "RemoteUnavailableError",
    "Router",
    "export_store",
    "import_archive",
    "parse_backends",
    "serve_route",
]

_LAZY_ROUTER_EXPORTS = ("Router", "serve_route")


def __getattr__(name: str):
    # The router pulls in the server/gateway stack (and through it
    # repro.core); loading it lazily keeps `import repro.engine.cluster`
    # usable from config validation without cycles.
    if name in _LAZY_ROUTER_EXPORTS:
        from . import router

        return getattr(router, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
