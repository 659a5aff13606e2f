"""Tiered quality-profile caching.

The planning loop re-estimates quality profiles for every candidate
flow; profiles are pure functions of (flow content digest, estimation
settings, measure registry), which makes them ideal cache currency.
This package provides the cache tiers behind
``ProcessingConfiguration.cache_tier``:

``"memory"``
    :class:`ProfileCache` -- the in-process LRU (the default; the seed
    behaviour).
``"disk"``
    :class:`DiskProfileCache` -- a persistent, process-shared store
    under ``cache_dir`` (atomic writes, versioned self-verifying
    entries, corruption-tolerant reads, size-capped LRU eviction).
``"tiered"``
    :class:`TieredProfileCache` -- memory over disk with promotion on
    disk hits; the right choice for repeated/parallel runs.
``"http"``
    :class:`HTTPProfileCache` -- a client onto a shared network cache
    service (:class:`repro.service.CacheServer`), so a fleet of machines
    shares one store; degrades gracefully to a local memory tier when
    the server is unreachable.
``"sharded"``
    :class:`~repro.fleet.ShardedProfileCache` -- a consistent-hash ring
    of ``"http"`` clients partitioning the store across N cache servers
    (``cache_urls``); each shard degrades and recovers independently.
    See ``docs/fleet.md``.

All tiers implement the :class:`CacheBackend` protocol.  See
``docs/caching.md`` for the selection guide, the key/versioning scheme
and the invalidation rules, and ``docs/service.md`` for the network
tier's wire protocol.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from repro.cache.backend import (
    CACHE_SCHEMA_VERSION,
    DEFAULT_MAX_PENDING,
    DEFAULT_RECOVERY_INTERVAL,
    CacheBackend,
    CacheStats,
    cache_stats_dict,
    is_cache_key,
)
from repro.cache.disk import DiskProfileCache
from repro.cache.memory import ProfileCache
from repro.cache.tiered import TieredProfileCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.http import HTTPProfileCache
    from repro.obs.metrics import MetricsRegistry


def __getattr__(name: str):
    """Load the network tier on first use.

    :mod:`repro.cache.http` pulls in :mod:`repro.wire`, ``http.client``
    and ``ssl``; a planner on the memory or disk tiers never needs them,
    so they stay off its import path.
    """
    if name == "HTTPProfileCache":
        from repro.cache.http import HTTPProfileCache

        return HTTPProfileCache
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: The valid values of ``ProcessingConfiguration.cache_tier``.
CACHE_TIERS = ("memory", "disk", "tiered", "http", "sharded")

#: Default ``ProcessingConfiguration.cache_timeout`` (seconds per request).
DEFAULT_CACHE_TIMEOUT = 5.0


def build_profile_cache(
    tier: str = "memory",
    cache_dir: str | os.PathLike | None = None,
    max_bytes: int | None = None,
    url: str | None = None,
    timeout: float = DEFAULT_CACHE_TIMEOUT,
    compression: bool = True,
    auth_token: str | None = None,
    recovery_interval: float | None = DEFAULT_RECOVERY_INTERVAL,
    max_pending: int = DEFAULT_MAX_PENDING,
    urls: tuple[str, ...] | None = None,
    ring_replicas: int | None = None,
    registry: "MetricsRegistry | None" = None,
) -> CacheBackend:
    """Build the cache backend selected by the configuration knobs.

    Mirrors the ``cache_tier`` / ``cache_dir`` / ``cache_max_bytes`` /
    ``cache_url`` / ``cache_timeout`` fields of
    :class:`~repro.core.configuration.ProcessingConfiguration` -- plus
    the ``"http"`` tier's wire knobs (``cache_compression``,
    ``cache_auth_token``, ``cache_recovery_interval``,
    ``cache_max_pending``) and the ``"sharded"`` tier's ring knobs
    (``cache_urls`` -> ``urls``, ``fleet_ring_replicas`` ->
    ``ring_replicas``); the configuration validates the combination up
    front and the planner calls this when ``cache_profiles`` is
    enabled.  ``tier="memory"`` ignores the other arguments and
    reproduces the original in-process behaviour.  ``registry``
    (``metrics_enabled`` -> :func:`repro.obs.enabled_registry`) hangs a
    metrics registry on the built tier so its batched lookups report
    ``cache.<tier>.*`` instruments; ``None`` (the default) keeps every
    tier observation-free.
    """
    if tier == "memory":
        return ProfileCache(registry=registry)
    if tier not in CACHE_TIERS:
        raise ValueError(f"unknown cache tier: {tier!r} (use one of {CACHE_TIERS})")
    if tier == "sharded":
        if not urls:
            raise ValueError('cache_tier="sharded" requires cache_urls')
        # Imported lazily: repro.fleet.sharded imports this package.
        from repro.fleet.sharded import ShardedProfileCache

        kwargs: dict = dict(
            timeout=timeout,
            compression=compression,
            auth_token=auth_token,
            recovery_interval=recovery_interval,
            max_pending=max_pending,
        )
        if ring_replicas is not None:
            kwargs["ring_replicas"] = ring_replicas
        return ShardedProfileCache(urls, registry=registry, **kwargs)
    if tier == "http":
        if url is None:
            raise ValueError('cache_tier="http" requires a cache_url')
        from repro.cache.http import HTTPProfileCache

        return HTTPProfileCache(
            url,
            timeout=timeout,
            compression=compression,
            auth_token=auth_token,
            recovery_interval=recovery_interval,
            max_pending=max_pending,
            registry=registry,
        )
    if cache_dir is None:
        raise ValueError(f"cache_tier={tier!r} requires a cache_dir")
    disk = DiskProfileCache(cache_dir, max_bytes=max_bytes, registry=registry)
    if tier == "disk":
        return disk
    return TieredProfileCache(ProfileCache(registry=registry), disk, registry=registry)


__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CACHE_TIERS",
    "DEFAULT_CACHE_TIMEOUT",
    "CacheBackend",
    "CacheStats",
    "DiskProfileCache",
    "HTTPProfileCache",
    "ProfileCache",
    "TieredProfileCache",
    "build_profile_cache",
    "cache_stats_dict",
    "is_cache_key",
]
