"""The engine's one id table: a reference is an integer slot.

An engine numbers every enrolment with the next slot; batches and kernels
carry slots only, and ``_slots`` / ``_names`` map live ids to slots and
slots back to ids (``None`` for a tombstone).  The state machine here
drives one engine through enrolments, updates, deletes, flushes, searches
and exports against a dict model; the regression test pins what happens
to the table when the cache drops a batch.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import EngineConfig, TextureSearchEngine
from repro.errors import CacheCapacityError
from tests.conftest import make_descriptors, pairs

IDS = [f"r{i}" for i in range(7)]


def test_a_batch_the_cache_drops_takes_its_references_out_of_the_table():
    """Batches of two, a GPU level of two batches and no host level: the
    seal at r5 drops batch 0 (r0, r1).  Those two must leave the table, or
    the engine counts and exports references it no longer holds, and its
    later slots go out of step."""
    config = EngineConfig(m=8, n=16, batch_size=2, min_matches=1)
    engine = TextureSearchEngine(
        config, gpu_cache_bytes=2 * 2 * config.feature_matrix_bytes(), host_cache_bytes=0)
    for i in range(5):
        engine.add_reference(f"r{i}", make_descriptors(8, seed=i))
    with pytest.raises(CacheCapacityError, match="nowhere to go"):
        engine.add_reference("r5", make_descriptors(8, seed=5))
    assert engine.n_references == 4
    assert not engine.has_reference("r0") and not engine.has_reference("r1")
    assert [record.ref_id for record in engine.export_records()] == ["r2", "r3", "r4", "r5"]

    engine.add_reference("r6", make_descriptors(8, seed=6))  # pending
    assert engine.remove_reference("r4")
    assert engine.has_reference("r6") and not engine.has_reference("r4")
    assert [record.ref_id for record in engine.export_records()] == ["r2", "r3", "r5", "r6"]
    assert engine.remove_reference("r6")  # so the search seals nothing the full cache refuses
    found = [ref_id for ref_id, _ in pairs(engine.search(make_descriptors(16, seed=4)))]
    assert sorted(found) == ["r2", "r3", "r5"]


class EngineIdentity(RuleBasedStateMachine):
    """One engine (batches of three) against a dict model.  The model also
    keeps its own slot list and batch boundaries, to know what the cache
    holds: a batch seals when full or flushed (a search flushes), is never
    cached if every slot is dead by then, and is purged once every slot is."""

    def __init__(self) -> None:
        super().__init__()
        self.config = EngineConfig(m=8, n=16, batch_size=3, min_matches=1)
        self.engine = TextureSearchEngine(self.config)
        self.live: dict[str, int] = {}  # id -> descriptor seed, in enrolment order
        self.slot_ids: list[str | None] = []  # the model's slot table
        self.pending: list[int] = []
        self.cached: list[list[int]] = []  # sealed, cached batches as slot lists
        self.seeds = 0

    # -- the model's batching -------------------------------------------
    def _seal(self) -> None:
        if self.pending and any(self.slot_ids[s] is not None for s in self.pending):
            self.cached.append(self.pending)
        self.pending = []

    def _kill(self, ref_id: str) -> None:
        slot = self.slot_ids.index(ref_id)
        self.slot_ids[slot] = None
        del self.live[ref_id]
        self.cached = [b for b in self.cached if any(self.slot_ids[s] is not None for s in b)]

    # -- steps ----------------------------------------------------------
    @rule(ref_id=st.sampled_from(IDS))
    def enrol(self, ref_id):
        """A new id, or an update of a live one (its old slot dies)."""
        if ref_id in self.live:
            self._kill(ref_id)
        self.seeds += 1
        self.engine.add_reference(ref_id, make_descriptors(8, seed=self.seeds))
        self.live[ref_id] = self.seeds
        self.slot_ids.append(ref_id)
        self.pending.append(len(self.slot_ids) - 1)
        if len(self.pending) == self.config.batch_size:
            self._seal()

    @rule(ref_id=st.sampled_from(IDS))
    def delete(self, ref_id):
        assert self.engine.remove_reference(ref_id) == (ref_id in self.live)
        if ref_id in self.live:
            self._kill(ref_id)

    @rule()
    def flush(self):
        self.engine.flush()
        self._seal()

    @rule(seed=st.integers(0, 3))
    def search(self, seed):
        sweep = self.engine.search(make_descriptors(16, seed=seed))
        self._seal()
        assert sorted(ref_id for ref_id, _ in pairs(sweep)) == sorted(self.live)
        assert sweep.images_pruned == 0

    @rule(nominees=st.sets(st.sampled_from(IDS + ["unknown"]), max_size=4))
    def routed_search(self, nominees):
        """Only the live nominees answer; a batch with no live nominee (one
        holding only a re-enrolled nominee's dead slot, say) is pruned."""
        sweep = self.engine.search(make_descriptors(16, seed=9), candidate_ids=frozenset(nominees))
        self._seal()
        assert sorted(ref_id for ref_id, _ in pairs(sweep)) == sorted(nominees & self.live.keys())
        assert sweep.images_pruned == sum(
            len(batch) for batch in self.cached if not nominees & {self.slot_ids[s] for s in batch})

    @rule()
    def export(self):
        records = self.engine.export_records()
        assert [record.ref_id for record in records] == list(self.live)
        for record in records:
            stored, _ = self.engine.prepare_reference_matrix(
                make_descriptors(8, seed=self.live[record.ref_id]))
            assert np.array_equal(record.matrix, stored)

    # -- invariants -----------------------------------------------------
    @invariant()
    def counts_agree(self):
        assert self.engine.n_references == len(self.live)
        assert all(self.engine.has_reference(ref_id) == (ref_id in self.live) for ref_id in IDS)
        slots = sum(len(batch) for batch in self.cached)
        dead = sum(self.slot_ids[s] is None for batch in self.cached for s in batch)
        share = self.engine.fragmentation()["dead_slot_share"]
        assert share == pytest.approx(dead / slots if slots else 0.0)
        assert self.engine.fragmentation()["sealed_batches"] == len(self.cached)


TestEngineIdentity = EngineIdentity.TestCase
TestEngineIdentity.settings = settings(max_examples=40, stateful_step_count=30, deadline=None)
