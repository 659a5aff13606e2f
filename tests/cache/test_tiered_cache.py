"""Unit tests of the memory-over-disk composite cache tier."""

from __future__ import annotations

import pickle

from repro.cache import (
    DiskProfileCache,
    ProfileCache,
    TieredProfileCache,
    build_profile_cache,
)
from repro.quality.composite import QualityProfile
from tests.conftest import digest_key


def _profile(name: str = "p") -> QualityProfile:
    return QualityProfile(flow_name=name)


def _tiered(tmp_path, **disk_kwargs) -> TieredProfileCache:
    return TieredProfileCache(ProfileCache(), DiskProfileCache(tmp_path, **disk_kwargs))


class TestTieredLookup:
    def test_write_through_and_memory_hit(self, tmp_path):
        cache = _tiered(tmp_path)
        cache.put(digest_key("k"), _profile())
        assert cache.get(digest_key("k")) is not None
        # the memory tier answered; disk was never consulted for the get
        assert cache.memory.stats.hits == 1
        assert cache.disk.stats.lookups == 0
        # but the entry was written through to disk
        assert digest_key("k") in cache.disk

    def test_disk_hit_is_promoted_to_memory(self, tmp_path):
        DiskProfileCache(tmp_path).put(digest_key("k"), _profile("warm"))
        cache = _tiered(tmp_path)  # fresh memory tier, warm disk
        first = cache.get(digest_key("k"))
        assert first is not None and first.flow_name == "warm"
        assert cache.memory.stats.misses == 1
        assert cache.disk.stats.hits == 1
        # the promotion makes the second lookup a pure memory hit
        assert cache.get(digest_key("k")) is not None
        assert cache.memory.stats.hits == 1
        assert cache.disk.stats.lookups == 1

    def test_logical_stats_count_once_per_lookup(self, tmp_path):
        DiskProfileCache(tmp_path).put(digest_key("warm"), _profile())
        cache = _tiered(tmp_path)
        cache.get(digest_key("warm"))  # disk hit
        cache.put(digest_key("new"), _profile())
        cache.get(digest_key("new"))  # memory hit
        cache.get(digest_key("absent"))  # miss everywhere
        assert cache.stats.hits == 2
        assert cache.stats.misses == 1
        assert cache.stats.lookups == 3

    def test_contains_and_len(self, tmp_path):
        cache = _tiered(tmp_path)
        cache.put(digest_key("k"), _profile())
        assert digest_key("k") in cache
        assert digest_key("absent") not in cache
        assert len(cache) == 1


class TestTieredMaintenance:
    def test_flush_publishes_the_disk_buffer(self, tmp_path):
        cache = _tiered(tmp_path, batch_writes=True)
        cache.put(digest_key("k"), _profile("buffered"))
        assert DiskProfileCache(tmp_path).get(digest_key("k")) is None  # not published yet
        cache.flush()
        assert DiskProfileCache(tmp_path).get(digest_key("k")).flow_name == "buffered"

    def test_clear_resets_both_tiers_and_all_stats(self, tmp_path):
        cache = _tiered(tmp_path)
        cache.put(digest_key("k"), _profile())
        cache.get(digest_key("k"))
        cache.get(digest_key("absent"))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.lookups == 0
        assert cache.memory.stats.lookups == 0
        assert cache.disk.stats.lookups == 0

    def test_tier_stats_shape(self, tmp_path):
        cache = _tiered(tmp_path)
        cache.put(digest_key("k"), _profile())
        cache.get(digest_key("k"))
        tiers = cache.tier_stats()
        assert set(tiers) == {"overall", "memory", "disk"}
        assert tiers["overall"]["hits"] == 1
        for snapshot in tiers.values():
            assert {"hits", "misses", "evictions", "invalid", "lookups", "hit_rate"} <= set(
                snapshot
            )

    def test_single_tier_stats_shapes(self, tmp_path):
        assert set(ProfileCache().tier_stats()) == {"memory"}
        assert set(DiskProfileCache(tmp_path).tier_stats()) == {"disk"}

    def test_pickles_to_an_entry_less_memory_tier_and_a_disk_handle(self, tmp_path):
        cache = _tiered(tmp_path)
        cache.put(digest_key("k"), _profile("shared"))
        clone = pickle.loads(pickle.dumps(cache))
        assert len(clone.memory) == 0  # memory entries never cross the boundary
        hit = clone.get(digest_key("k"))  # ...but the disk handle still reads them
        assert hit is not None and hit.flow_name == "shared"


class TestBuildProfileCache:
    def test_memory_tier_ignores_other_knobs(self):
        cache = build_profile_cache("memory")
        assert isinstance(cache, ProfileCache)

    def test_disk_and_tiered_tiers(self, tmp_path):
        disk = build_profile_cache("disk", cache_dir=tmp_path / "d", max_bytes=1 << 20)
        assert isinstance(disk, DiskProfileCache)
        assert disk.max_bytes == 1 << 20
        tiered = build_profile_cache("tiered", cache_dir=tmp_path / "t")
        assert isinstance(tiered, TieredProfileCache)

    def test_rejects_bad_combinations(self, tmp_path):
        import pytest

        with pytest.raises(ValueError):
            build_profile_cache("disk")  # no cache_dir
        with pytest.raises(ValueError):
            build_profile_cache("redis", cache_dir=tmp_path)


class TestTieredGetMany:
    def test_batched_lookup_promotes_disk_hits_and_counts_logically(self, tmp_path):
        cache = _tiered(tmp_path)
        cache.put(digest_key("a"), _profile("pa"))
        cache.put(digest_key("b"), _profile("pb"))
        cache.memory.clear()  # simulate a fresh process: disk-only warmth
        results = cache.get_many([digest_key("a"), digest_key("gone"), digest_key("b")])
        assert [r.flow_name if r else None for r in results] == ["pa", None, "pb"]
        # one logical count per key...
        assert cache.stats.hits == 2 and cache.stats.misses == 1
        # ...and the disk hits were promoted into memory
        assert digest_key("a") in cache.memory and digest_key("b") in cache.memory
        cache.get_many([digest_key("a"), digest_key("b")])
        assert cache.disk.stats.hits == 2, "promoted entries stop touching disk"
