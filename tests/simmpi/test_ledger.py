"""Unit tests for the simmpi FlowLedger (the vector engine's store)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.batchroute import PathMatrix
from repro.simmpi.ledger import FlowLedger


def _ledger(**kw):
    return FlowLedger(16, slot_capacity=2, entry_capacity=4, **kw)


class TestAddAndRetire:
    def test_add_returns_dense_slots(self):
        led = _ledger()
        assert led.add([0, 1], 1.0, 0, 0, 1) == 0
        assert led.add([2], 2.0, 0, 1, 2) == 1
        assert led.num_slots == 2
        assert led.num_active == 2
        assert led.path(0).tolist() == [0, 1]
        assert led.path(1).tolist() == [2]
        assert led.remaining[:2].tolist() == [1.0, 2.0]

    def test_growth_preserves_state(self):
        led = _ledger()
        for i in range(50):  # far past both initial capacities
            led.add([i % 16, (i + 1) % 16], float(i), i, i, i + 1)
        assert led.num_slots == 50
        assert led.path(37).tolist() == [37 % 16, 38 % 16]
        assert led.remaining[37] == 37.0
        assert led.order_keys[:50].tolist() == list(range(50))

    def test_link_load_incremental(self):
        led = _ledger()
        led.add([0, 1], 1.0, 0, 0, 1)
        led.add([1, 2], 1.0, 1, 1, 2)
        assert led.link_load[:3].tolist() == [1, 2, 1]
        led.deactivate(np.array([0]))
        assert led.link_load[:3].tolist() == [0, 1, 1]
        assert led.num_active == 1
        with pytest.raises(ValueError):
            led.link_load[0] = 99  # read-only snapshot

    def test_deactivate_twice_rejected(self):
        led = _ledger()
        led.add([0], 1.0, 0, 0, 1)
        led.deactivate(np.array([0]))
        with pytest.raises(ValueError, match="already-retired"):
            led.deactivate(np.array([0]))

    def test_active_slots_orderings(self):
        led = _ledger()
        for i in range(4):
            led.add([i], 1.0, i, i, i + 1)
        led.deactivate(np.array([1]))
        assert led.active_slots().tolist() == [0, 2, 3]
        # Repath slot 0: the fresh tail slot inherits order key 0, so
        # creation order differs from ascending slot order.
        fresh = led.repath(0, [5, 6])
        assert fresh == 4
        assert led.active_slots().tolist() == [2, 3, 4]
        assert led.active_slots_by_order().tolist() == [4, 2, 3]


class TestView:
    def test_view_is_live_and_cached(self):
        led = _ledger()
        led.add([0, 1], 1.0, 0, 0, 1)
        pm = led.view()
        assert isinstance(pm, PathMatrix)
        assert len(pm) == 1
        assert pm[0].tolist() == [0, 1]
        assert led.view() is pm  # cached until the arena changes
        led.add([2], 1.0, 1, 1, 2)
        pm2 = led.view()
        assert pm2 is not pm
        assert len(pm2) == 2
        assert pm2[1].tolist() == [2]

    def test_view_is_read_only_but_arena_stays_writable(self):
        led = _ledger()
        led.add([0, 1], 1.0, 0, 0, 1)
        pm = led.view()
        with pytest.raises(ValueError):
            pm.link_ids[0] = 7
        led.add([3], 1.0, 1, 1, 2)  # arena append still fine

    def test_deactivate_keeps_view(self):
        led = _ledger()
        led.add([0, 1], 1.0, 0, 0, 1)
        led.add([2], 1.0, 1, 1, 2)
        pm = led.view()
        led.deactivate(np.array([0]))
        # Retiring flips a mask bit; the CSR itself is unchanged.
        assert led.view() is pm


class TestMaskQueries:
    def test_crossing_count_and_slots(self):
        led = _ledger()
        led.add([0, 1], 1.0, 0, 0, 1)   # crosses 1
        led.add([2, 3], 1.0, 1, 1, 2)
        led.add([1, 4], 1.0, 2, 2, 3)   # crosses 1
        mask = np.zeros(16, dtype=bool)
        mask[1] = True
        act = led.active_slots()
        assert led.crossing_count(mask, act) == 2
        assert led.crossing_slots(mask).tolist() == [0, 2]
        mask[:] = False
        assert led.crossing_count(mask, act) == 0
        assert led.crossing_slots(mask).tolist() == []

    def test_crossing_slots_in_creation_order_after_repath(self):
        led = _ledger()
        led.add([0], 1.0, 0, 0, 1)
        led.add([1], 1.0, 1, 1, 2)
        led.repath(0, [2])  # slot 2 now carries order key 0
        mask = np.ones(16, dtype=bool)
        assert led.crossing_slots(mask).tolist() == [2, 1]


class TestRepath:
    def test_repath_inherits_everything(self):
        led = _ledger()
        led.add([0, 1], 3.5, 7, 4, 9)
        fresh = led.repath(0, [2, 3, 4])
        assert led.num_active == 1
        assert led.path(fresh).tolist() == [2, 3, 4]
        assert led.remaining[fresh] == 3.5
        assert led.group_ids[fresh] == 7
        assert led.src_nodes[fresh] == 4
        assert led.dst_nodes[fresh] == 9
        assert led.order_keys[fresh] == 0
        assert led.link_load[:5].tolist() == [0, 0, 1, 1, 1]

    def test_repath_inactive_rejected(self):
        led = _ledger()
        led.add([0], 1.0, 0, 0, 1)
        led.deactivate(np.array([0]))
        with pytest.raises(ValueError, match="not active"):
            led.repath(0, [1])


class TestCompaction:
    def test_below_threshold_never_compacts(self):
        led = _ledger(compact_min=10_000)
        for i in range(20):
            slot = led.add([i % 16], 1.0, i, i, i + 1)
            led.deactivate(np.array([slot]))
        assert not led.maybe_compact()
        assert led.compactions == 0

    def test_compacts_and_preserves_active_flows(self):
        led = _ledger(compact_min=1)
        keep = []
        for i in range(10):
            slot = led.add([i % 16, (i + 3) % 16], float(i), i, i, i + 1)
            if i % 3 == 0:
                keep.append((slot, i))
            else:
                led.deactivate(np.array([slot]))
        load_before = led.link_load.copy()
        assert led.maybe_compact()
        assert led.compactions == 1
        assert led.num_active == len(keep)
        assert led.num_slots == len(keep)
        assert led.retired_entries == 0
        # Planes compacted in slot order; paths and metadata intact.
        for new_slot, (_, i) in enumerate(keep):
            assert led.path(new_slot).tolist() == [i % 16, (i + 3) % 16]
            assert led.remaining[new_slot] == float(i)
            assert led.group_ids[new_slot] == i
        np.testing.assert_array_equal(led.link_load, load_before)

    def test_compaction_requires_retired_majority(self):
        led = _ledger(compact_min=1)
        led.add([0, 1, 2, 3], 1.0, 0, 0, 1)
        slot = led.add([4], 1.0, 1, 1, 2)
        led.deactivate(np.array([slot]))
        # 1 retired entry vs 4 live: rebuild would not pay.
        assert not led.maybe_compact()

    def test_default_compact_floor(self):
        for led, compacts in ((FlowLedger(8), False),
                              (FlowLedger(8, compact_min=3), True)):
            for i in range(4):
                slot = led.add([i], 1.0, i, i, i + 1)
                led.deactivate(np.array([slot]))
            # Four retired entries sit far below the default floor.
            assert led.maybe_compact() is compacts

    def test_add_after_compaction(self):
        led = _ledger(compact_min=1)
        led.add([0], 1.0, 0, 0, 1)
        for i in range(5):
            slot = led.add([1, 2], 1.0, 1 + i, i, i + 1)
            led.deactivate(np.array([slot]))
        assert led.maybe_compact()
        slot = led.add([3], 2.0, 99, 7, 8)
        assert slot == 1
        assert led.path(slot).tolist() == [3]
        # Fresh order keys continue past every key ever issued.
        assert led.order_keys[slot] > led.order_keys[0]


class TestValidation:
    def test_ctor_validation(self):
        with pytest.raises(ValueError):
            FlowLedger(-1)
        with pytest.raises(ValueError):
            FlowLedger(4, slot_capacity=0)
        with pytest.raises(ValueError):
            FlowLedger(4, entry_capacity=0)


class TestLoadPlaneInvariant:
    """The load plane seeds the solver's first water-fill round, so it
    must equal a fresh bincount over the active slots' arena entries
    after every mutation."""

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_link_load_equals_bincount_of_active_entries(self, data):
        led = _ledger(compact_min=1)
        paths = st.lists(st.integers(0, 15), min_size=0, max_size=5)
        ops = st.sampled_from(
            ("add", "deactivate", "retire_all", "repath", "compact")
        )
        for _ in range(data.draw(st.integers(1, 30))):
            act = led.active_slots().tolist()
            op = data.draw(ops) if act else "add"
            if op == "add":
                for path in data.draw(st.lists(paths, min_size=1, max_size=12)):
                    led.add(path, 1.0, 0, 0, 1)
            elif op == "deactivate":
                picked = data.draw(
                    st.lists(st.sampled_from(act), min_size=1, unique=True)
                )
                led.deactivate(np.asarray(picked, dtype=np.int64))
            elif op == "retire_all":
                # More than 8 slots at once takes the bulk-gather branch.
                led.deactivate(np.asarray(act, dtype=np.int64))
            elif op == "repath":
                led.repath(data.draw(st.sampled_from(act)), data.draw(paths))
            else:
                led.maybe_compact()
            entries = [led.path(s) for s in led.active_slots()]
            expected = np.bincount(
                np.concatenate([np.empty(0, dtype=np.int64), *entries]),
                minlength=16,
            )
            assert led.link_load.tolist() == expected.tolist()
