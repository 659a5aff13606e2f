"""Unit tests of the disk-backed profile cache: happy path and failure modes.

The disk tier's contract is "a damaged or stale cache degrades to a cold
cache, never to wrong results": corrupted entries, entries written by an
incompatible schema version, concurrent writers and size-cap eviction
must all surface as misses/evictions, not exceptions or stale profiles.
"""

from __future__ import annotations

import os
import pickle
import threading

import pytest

from repro.cache import CACHE_SCHEMA_VERSION, CacheStats, DiskProfileCache
from repro.cache.disk import _ENTRY_SUFFIX
from repro.quality.composite import QualityProfile
from tests.conftest import digest_key


def _profile(name: str = "p", **values) -> QualityProfile:
    return QualityProfile(flow_name=name, values=dict(values))


def _entry_files(cache: DiskProfileCache):
    return sorted(cache.cache_dir.glob(f"*{_ENTRY_SUFFIX}"))


class TestDiskCacheBasics:
    def test_get_put_and_stats(self, tmp_path):
        cache = DiskProfileCache(tmp_path)
        assert cache.get(digest_key("k")) is None
        cache.put(digest_key("k"), _profile())
        hit = cache.get(digest_key("k"))
        assert hit is not None and hit.flow_name == "p"
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.lookups == 2
        assert len(cache) == 1
        assert digest_key("k") in cache
        assert digest_key("other") not in cache

    def test_entries_persist_across_instances(self, tmp_path):
        DiskProfileCache(tmp_path).put(digest_key("k"), _profile("persisted"))
        reopened = DiskProfileCache(tmp_path)
        hit = reopened.get(digest_key("k"))
        assert hit is not None and hit.flow_name == "persisted"
        assert reopened.stats.hits == 1

    def test_atomic_publish_leaves_no_temp_files(self, tmp_path):
        cache = DiskProfileCache(tmp_path)
        for i in range(5):
            cache.put(digest_key(f"k{i}"), _profile(f"p{i}"))
        leftovers = [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
        assert leftovers == []
        assert len(_entry_files(cache)) == 5

    def test_clear_drops_entries_and_stats(self, tmp_path):
        cache = DiskProfileCache(tmp_path)
        cache.put(digest_key("k"), _profile())
        cache.get(digest_key("k"))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.lookups == 0
        assert _entry_files(cache) == []

    def test_invalid_max_bytes(self, tmp_path):
        with pytest.raises(ValueError):
            DiskProfileCache(tmp_path, max_bytes=0)

    def test_size_bytes_tracks_entries(self, tmp_path):
        cache = DiskProfileCache(tmp_path)
        assert cache.size_bytes() == 0
        cache.put(digest_key("k"), _profile())
        assert cache.size_bytes() > 0

    def test_pickles_as_a_handle_onto_the_same_directory(self, tmp_path):
        cache = DiskProfileCache(tmp_path, max_bytes=1 << 20)
        cache.put(digest_key("k"), _profile("shared"))
        cache.get(digest_key("k"))
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.cache_dir == cache.cache_dir
        assert clone.max_bytes == 1 << 20
        # stats round-trip, and the clone reads entries the original wrote
        assert clone.stats.hits == 1
        hit = clone.get(digest_key("k"))
        assert hit is not None and hit.flow_name == "shared"


class TestDiskCacheFailureModes:
    def test_corrupted_entry_is_a_miss_and_removed(self, tmp_path):
        cache = DiskProfileCache(tmp_path)
        cache.put(digest_key("k"), _profile())
        (path,) = _entry_files(cache)
        path.write_bytes(b"\x00garbage not pickle")
        assert cache.get(digest_key("k")) is None
        assert cache.stats.invalid == 1
        assert cache.stats.misses == 1
        assert not path.exists(), "the damaged entry must be dropped"
        # the cache heals: a re-put works and is readable again
        cache.put(digest_key("k"), _profile("healed"))
        assert cache.get(digest_key("k")).flow_name == "healed"

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = DiskProfileCache(tmp_path)
        cache.put(digest_key("k"), _profile())
        (path,) = _entry_files(cache)
        path.write_bytes(path.read_bytes()[:10])
        assert cache.get(digest_key("k")) is None
        assert cache.stats.invalid == 1

    def test_wrong_payload_shape_is_a_miss(self, tmp_path):
        cache = DiskProfileCache(tmp_path)
        cache.put(digest_key("k"), _profile())
        (path,) = _entry_files(cache)
        path.write_bytes(pickle.dumps(["not", "a", "payload", "dict"]))
        assert cache.get(digest_key("k")) is None
        assert cache.stats.invalid == 1

    def test_version_mismatch_is_a_miss_and_removed(self, tmp_path):
        cache = DiskProfileCache(tmp_path)
        cache.put(digest_key("k"), _profile())
        (path,) = _entry_files(cache)
        payload = pickle.loads(path.read_bytes())
        payload["version"] = CACHE_SCHEMA_VERSION + 1
        path.write_bytes(pickle.dumps(payload))
        assert cache.get(digest_key("k")) is None
        assert cache.stats.invalid == 1
        assert not path.exists(), "a stale-schema entry must be dropped"

    def test_malformed_key_is_a_miss_and_never_a_path(self, tmp_path):
        """Keys become file names, so only 64-hex digests are accepted."""
        cache = DiskProfileCache(tmp_path)
        for bad in ("../escape", "A" * 64, "0" * 63, ("tuple",)):
            assert cache.get(bad) is None
            assert bad not in cache
            with pytest.raises(ValueError):
                cache.put(bad, _profile())
        assert cache.stats.misses == 4
        assert list(tmp_path.iterdir()) == []

    def test_schema_version_partitions_the_file_namespace(self, tmp_path, monkeypatch):
        """Entries written under one schema version are invisible to another."""
        import repro.quality.estimator as estimator_module
        from repro.etl.graph import ETLGraph
        from repro.quality.estimator import QualityEstimator

        flow = ETLGraph("empty")
        cache = DiskProfileCache(tmp_path)
        cache.put(QualityEstimator().cache_key(flow), _profile())
        monkeypatch.setattr(
            estimator_module, "CACHE_SCHEMA_VERSION", CACHE_SCHEMA_VERSION + 1
        )
        bumped = DiskProfileCache(tmp_path)
        assert bumped.get(QualityEstimator().cache_key(flow)) is None  # new key, plain miss
        assert bumped.stats.misses == 1


class TestDiskCacheEviction:
    def test_evicts_least_recently_used_under_cap(self, tmp_path):
        cache = DiskProfileCache(tmp_path)  # uncapped while seeding
        for i in range(4):
            cache.put(digest_key(f"k{i}"), _profile(f"p{i}"))
        entry_size = cache.size_bytes() // 4
        # age the entries explicitly (same-second writes share mtimes)
        for age, key in enumerate(["k0", "k1", "k2", "k3"]):
            path = cache._path(digest_key(key))
            os.utime(path, (1_000_000 + age, 1_000_000 + age))
        # a hit refreshes k0, making k1 the least recently used
        assert cache.get(digest_key("k0")) is not None
        cache.max_bytes = entry_size * 3
        cache.put(digest_key("k4"), _profile("p4"))
        assert cache.stats.evictions >= 1
        assert digest_key("k1") not in cache, "the least-recently-used entry goes first"
        assert digest_key("k0") in cache, "the freshly hit entry survives"
        assert digest_key("k4") in cache, "the newest entry survives"
        assert cache.size_bytes() <= cache.max_bytes

    def test_uncapped_cache_never_evicts(self, tmp_path):
        cache = DiskProfileCache(tmp_path)
        for i in range(20):
            cache.put(digest_key(f"k{i}"), _profile(f"p{i}"))
        assert cache.stats.evictions == 0
        assert len(cache) == 20


class TestDiskCacheBatching:
    def test_batched_puts_are_visible_but_not_published(self, tmp_path):
        cache = DiskProfileCache(tmp_path, batch_writes=True)
        cache.put(digest_key("k"), _profile("buffered"))
        assert digest_key("k") in cache
        assert len(cache) == 1
        assert cache.get(digest_key("k")).flow_name == "buffered"  # served from the buffer
        assert _entry_files(cache) == []  # nothing on disk yet
        other = DiskProfileCache(tmp_path)
        assert other.get(digest_key("k")) is None  # other handles cannot see the buffer

    def test_flush_publishes_the_buffer(self, tmp_path):
        cache = DiskProfileCache(tmp_path, batch_writes=True)
        for i in range(3):
            cache.put(digest_key(f"k{i}"), _profile(f"p{i}"))
        cache.flush()
        assert len(_entry_files(cache)) == 3
        other = DiskProfileCache(tmp_path)
        assert other.get(digest_key("k1")).flow_name == "p1"
        cache.flush()  # idempotent on an empty buffer

    def test_flush_applies_the_size_cap_once(self, tmp_path):
        seed = DiskProfileCache(tmp_path)
        seed.put(digest_key("probe"), _profile())
        entry_size = seed.size_bytes()
        seed.clear()
        cache = DiskProfileCache(tmp_path, max_bytes=entry_size * 2, batch_writes=True)
        for i in range(5):
            cache.put(digest_key(f"k{i}"), _profile(f"p{i}"))
        assert cache.stats.evictions == 0  # nothing published yet
        cache.flush()
        assert cache.size_bytes() <= cache.max_bytes
        assert cache.stats.evictions >= 3


class TestDiskCacheConcurrency:
    def test_concurrent_writers_and_readers_one_directory(self, tmp_path):
        """Two handles (as two planners would hold) hammer one cache_dir."""
        writers = [DiskProfileCache(tmp_path) for _ in range(2)]
        errors: list[Exception] = []

        def hammer(cache: DiskProfileCache, worker: int) -> None:
            try:
                for i in range(50):
                    key = digest_key(f"k{i % 10}")
                    cache.put(key, _profile(f"w{worker}-{i}"))
                    hit = cache.get(key)
                    assert hit is not None  # my own write (or the peer's) is always readable
                    assert hit.flow_name.startswith("w")
            except Exception as exc:  # pragma: no cover - only on failure
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(cache, n))
            for n, cache in enumerate(writers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        # last-writer-wins left exactly one valid entry per key
        survivor = DiskProfileCache(tmp_path)
        assert len(survivor) == 10
        for i in range(10):
            assert survivor.get(digest_key(f"k{i}")) is not None
        assert survivor.stats.invalid == 0


class TestCacheStatsInvalidCounter:
    def test_as_dict_includes_invalid(self):
        stats = CacheStats(hits=3, misses=1, invalid=2)
        snapshot = stats.as_dict()
        assert snapshot["invalid"] == 2
        assert snapshot["lookups"] == 4


class TestGetMany:
    def test_get_many_matches_sequential_gets_and_counts_once_per_key(self, tmp_path):
        cache = DiskProfileCache(tmp_path)
        cache.put(digest_key("a"), _profile("pa"))
        cache.put(digest_key("b"), _profile("pb"))
        results = cache.get_many([digest_key("a"), digest_key("missing"), digest_key("b")])
        assert [r.flow_name if r else None for r in results] == ["pa", None, "pb"]
        assert cache.stats.hits == 2
        assert cache.stats.misses == 1

    def test_get_many_serves_the_pending_buffer(self, tmp_path):
        cache = DiskProfileCache(tmp_path, batch_writes=True)
        cache.put(digest_key("buffered"), _profile("pending"))
        results = cache.get_many([digest_key("buffered"), digest_key("absent")])
        assert results[0].flow_name == "pending"
        assert results[1] is None


class TestGetByDigest:
    """Lookups by digest: the key *is* the file name, nothing is re-hashed."""

    def test_round_trips_through_the_file_name_digest(self, tmp_path):
        cache = DiskProfileCache(tmp_path)
        key = digest_key(("flow", ("nested", 1, 2.5, None, True)))
        cache.put(key, _profile("digested"))
        (path,) = _entry_files(cache)
        assert path.name == f"{key}{_ENTRY_SUFFIX}"
        assert DiskProfileCache(tmp_path).get(key).flow_name == "digested"

    def test_unknown_digest_is_a_miss(self, tmp_path):
        cache = DiskProfileCache(tmp_path)
        assert cache.get("0" * 64) is None
        assert cache.stats.misses == 1

    def test_version_mismatch_is_invalid_and_dropped(self, tmp_path):
        cache = DiskProfileCache(tmp_path)
        key = digest_key("stale")
        cache.put(key, _profile())
        path = cache._path(key)
        payload = pickle.loads(path.read_bytes())
        payload["version"] = CACHE_SCHEMA_VERSION + 999
        path.write_bytes(pickle.dumps(payload))
        assert cache.get(key) is None
        assert cache.stats.invalid == 1
        assert not path.exists(), "stale entries are dropped, not served"

    def test_pending_buffer_is_searched_first(self, tmp_path):
        cache = DiskProfileCache(tmp_path, batch_writes=True)
        key = digest_key("buffered")
        cache.put(key, _profile("unpublished"))
        assert cache.get(key).flow_name == "unpublished"


class TestBackgroundEviction:
    def _capped_cache(self, tmp_path, entries: int = 5):
        probe = DiskProfileCache(tmp_path / "probe")
        probe.put(digest_key("probe"), _profile())
        entry_size = probe.size_bytes()
        cache = DiskProfileCache(tmp_path / "store", max_bytes=entry_size * 2)
        return cache, entries

    def test_sweeper_moves_eviction_off_the_write_path(self, tmp_path):
        cache, entries = self._capped_cache(tmp_path)
        cache.start_background_eviction(interval=3600.0)  # never fires in-test
        try:
            for i in range(entries):
                cache.put(digest_key(f"k{i}"), _profile(f"p{i}"))
            # the write path no longer sweeps: the store exceeds the cap
            assert cache.size_bytes() > cache.max_bytes
            assert cache.stats.evictions == 0
        finally:
            cache.stop_background_eviction()  # final sweep restores the cap
        assert cache.size_bytes() <= cache.max_bytes
        assert cache.stats.evictions >= 1

    def test_sweeper_thread_eventually_sweeps(self, tmp_path):
        import time

        cache, entries = self._capped_cache(tmp_path)
        cache.start_background_eviction(interval=0.02)
        try:
            for i in range(entries):
                cache.put(digest_key(f"k{i}"), _profile(f"p{i}"))
            deadline = time.monotonic() + 5.0
            while cache.size_bytes() > cache.max_bytes:
                assert time.monotonic() < deadline, "sweeper never caught up"
                time.sleep(0.01)
        finally:
            cache.stop_background_eviction(final_sweep=False)
        assert cache.stats.evictions >= 1

    def test_inline_sweep_restored_after_stop(self, tmp_path):
        cache, entries = self._capped_cache(tmp_path)
        cache.start_background_eviction(interval=3600.0)
        cache.stop_background_eviction()
        for i in range(entries):
            cache.put(digest_key(f"k{i}"), _profile(f"p{i}"))
        assert cache.size_bytes() <= cache.max_bytes  # in-line sweeping again

    def test_double_start_rejected_and_interval_validated(self, tmp_path):
        cache = DiskProfileCache(tmp_path)
        with pytest.raises(ValueError):
            cache.start_background_eviction(interval=0)
        cache.start_background_eviction(interval=3600.0)
        try:
            with pytest.raises(RuntimeError):
                cache.start_background_eviction(interval=3600.0)
        finally:
            cache.stop_background_eviction()
        cache.start_background_eviction(interval=3600.0)  # restartable after stop
        cache.stop_background_eviction()
