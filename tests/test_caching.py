"""Unit tests for the bounded memoization layer."""

from __future__ import annotations

import pytest

from repro.caching import (
    BoundedMemo,
    cache_stats,
    clear_all_caches,
    default_cache_size,
    memoized,
)


class TestBoundedMemo:
    def test_hit_and_miss_accounting(self):
        memo = BoundedMemo(maxsize=4, name="t")
        assert memo.get_or_compute("a", lambda: 1) == 1
        assert memo.get_or_compute("a", lambda: 2) == 1  # cached
        info = memo.info()
        assert (info.hits, info.misses, info.size) == (1, 1, 1)
        assert info.hit_rate == pytest.approx(0.5)

    def test_lru_eviction_bounds_size(self):
        memo = BoundedMemo(maxsize=3, name="t")
        for k in range(10):
            memo.get_or_compute(k, lambda k=k: k)
        assert len(memo) == 3
        # Oldest entries evicted, newest retained.
        assert 9 in memo and 8 in memo and 7 in memo
        assert 0 not in memo

    def test_access_refreshes_recency(self):
        memo = BoundedMemo(maxsize=2, name="t")
        memo.get_or_compute("a", lambda: 1)
        memo.get_or_compute("b", lambda: 2)
        memo.get_or_compute("a", lambda: 0)  # refresh "a"
        memo.get_or_compute("c", lambda: 3)  # evicts "b", not "a"
        assert "a" in memo and "c" in memo and "b" not in memo

    def test_clear_resets_counters(self):
        memo = BoundedMemo(maxsize=2, name="t")
        memo.get_or_compute("a", lambda: 1)
        memo.clear()
        info = memo.info()
        assert (info.hits, info.misses, len(memo)) == (0, 0, 0)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            BoundedMemo(maxsize=0)


class TestMemoizedDecorator:
    def test_caches_by_args(self):
        calls = []

        @memoized(maxsize=8)
        def f(x, y=1):
            calls.append((x, y))
            return x + y

        assert f(1) == 2
        assert f(1) == 2
        assert f(1, y=2) == 3
        assert calls == [(1, 1), (1, 2)]
        info = f.cache_info()
        assert info.hits == 1 and info.misses == 2

    def test_custom_key_canonicalizes(self):
        calls = []

        @memoized(maxsize=8, key=lambda dims: tuple(sorted(dims)))
        def g(dims):
            calls.append(tuple(dims))
            return sum(dims)

        assert g((3, 1, 2)) == 6
        assert g((1, 2, 3)) == 6  # same canonical key: no recompute
        assert len(calls) == 1

    def test_cache_clear(self):
        @memoized(maxsize=4)
        def h(x):
            return object()

        first = h(1)
        assert h(1) is first
        h.cache_clear()
        assert h(1) is not first

    def test_bounded(self):
        @memoized(maxsize=2)
        def f(x):
            return x

        for i in range(10):
            f(i)
        assert f.cache_info().size == 2


class TestRegistry:
    def test_production_memos_registered(self):
        # Import the hot-path modules so their memos exist.
        import repro.allocation.enumeration  # noqa: F401
        import repro.allocation.optimizer  # noqa: F401
        import repro.isoperimetry.cuboids  # noqa: F401
        import repro.machines.bgq  # noqa: F401

        names = set(cache_stats())
        expected = {
            "repro.machines.bgq._bisection_of_node_dims",
            "repro.allocation.enumeration._enumerate_for_dims",
            "repro.allocation.enumeration._achievable_for_dims",
            "repro.allocation.optimizer._geometry_extremes",
            "repro.isoperimetry.cuboids._cuboid_extremes",
        }
        assert expected <= names

    def test_clear_all_caches(self):
        from repro.machines.bgq import normalized_bisection_bandwidth

        normalized_bisection_bandwidth((2, 2, 1, 1))
        clear_all_caches()
        for info in cache_stats().values():
            assert info.size == 0 and info.hits == 0 and info.misses == 0

    def test_cached_values_match_fresh_computation(self):
        from repro.machines.bgq import normalized_bisection_bandwidth

        clear_all_caches()
        cold = normalized_bisection_bandwidth((4, 3, 2, 1))
        warm = normalized_bisection_bandwidth((4, 3, 2, 1))
        assert cold == warm == 256 * 24 // 4

        # A warm design search resolves at the topmost memo.
        from repro.experiments.designsearch import design_search
        from repro.machines.catalog import JUQUEEN

        cold = design_search(8, JUQUEEN)
        assert design_search(8, JUQUEEN) == cold
        extremes = "repro.allocation.optimizer._geometry_extremes"
        assert cache_stats()[extremes].hits > 0


@memoized(maxsize=64)
def _expensive_identity(x):
    return x


def _memo_task(x):
    # Repeating keys (x % 3) guarantee hits inside each worker process.
    return _expensive_identity(x % 3)


class TestWorkerStatsMerge:
    def test_jobs2_sweep_counts_visible_in_cache_stats(self):
        """Regression: cache_stats() was all-zero after a jobs>1 sweep.

        Worker-side hit/miss counters must merge back into the parent
        registry once the sweep completes, so ``hits + misses`` equals
        the number of memoized lookups regardless of where they ran.
        """
        from repro.parallel import sweep_map

        _expensive_identity.cache_clear()
        n_tasks = 12
        results = sweep_map(_memo_task, list(range(n_tasks)), jobs=2)
        assert results == [x % 3 for x in range(n_tasks)]
        info = cache_stats()[_expensive_identity.cache.name]
        assert info.hits + info.misses == n_tasks
        assert info.hits > 0

    def test_merge_and_reset_counters(self):
        memo = BoundedMemo(maxsize=4, name="merge-t")
        memo.get_or_compute("a", lambda: 1)
        memo.get_or_compute("a", lambda: 1)
        memo.merge_counts(5, 7)
        info = memo.info()
        assert (info.hits, info.misses) == (6, 8)
        memo.reset_counters()
        info = memo.info()
        assert (info.hits, info.misses) == (0, 0)
        assert "a" in memo  # data survives a counter reset

    def test_merge_rejects_negative(self):
        memo = BoundedMemo(maxsize=4, name="merge-neg")
        with pytest.raises(ValueError):
            memo.merge_counts(-1, 0)


class TestDefaultSize:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_SIZE", "17")
        assert default_cache_size() == 17

    def test_invalid_env_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_SIZE", "lots")
        assert default_cache_size() == 4096
        monkeypatch.setenv("REPRO_CACHE_SIZE", "-3")
        assert default_cache_size() == 4096

    def test_unset_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_SIZE", raising=False)
        assert default_cache_size() == 4096
