"""Redis-like KV store."""

import pytest

from repro.distributed import KVStore


@pytest.fixture
def store():
    return KVStore()


class TestStrings:
    def test_set_get(self, store):
        store.set("k", b"v")
        assert store.get("k") == b"v"

    def test_missing_key(self, store):
        assert store.get("nope") is None

    def test_values_must_be_bytes(self, store):
        with pytest.raises(TypeError):
            store.set("k", "not-bytes")

    def test_delete(self, store):
        store.set("a", b"1")
        store.set("b", b"2")
        assert store.delete("a", "b", "ghost") == 2
        assert not store.exists("a")

    def test_keys_pattern(self, store):
        for name in ("feature:1", "feature:2", "meta:1"):
            store.set(name, b"x")
        assert store.keys("feature:*") == ["feature:1", "feature:2"]
        assert store.keys() == ["feature:1", "feature:2", "meta:1"]


class TestHashes:
    def test_hset_hget(self, store):
        store.hset("h", "f", b"v")
        assert store.hget("h", "f") == b"v"
        assert store.hget("h", "missing") is None

    def test_hgetall(self, store):
        store.hset("h", "a", b"1")
        store.hset("h", "b", b"2")
        assert store.hgetall("h") == {"a": b"1", "b": b"2"}

    def test_hdel_removes_empty_hash(self, store):
        store.hset("h", "a", b"1")
        assert store.hdel("h", "a", "ghost") == 1
        assert not store.exists("h")

    def test_delete_covers_hashes(self, store):
        store.hset("h", "a", b"1")
        assert store.delete("h") == 1


class TestVersioning:
    def test_version_starts_at_zero(self, store):
        assert store.version("nope") == 0

    def test_set_bumps_version(self, store):
        store.set("k", b"v1")
        assert store.version("k") == 1
        store.set("k", b"v2")
        assert store.version("k") == 2

    def test_version_monotonic_across_delete(self, store):
        # a recycled key must never look "new" again (the ABA problem)
        store.set("k", b"v1")
        store.set("k", b"v2")
        store.delete("k")
        assert store.get("k") is None
        assert store.version("k") == 3
        store.set("k", b"v3")
        assert store.version("k") == 4

    def test_restore_resets_versions_to_one(self, store):
        store.set("k", b"v1")
        store.set("k", b"v2")
        snapshot = store.dump()
        fresh = KVStore()
        fresh.restore(snapshot)
        assert fresh.version("k") == 1
        assert fresh.get("k") == b"v2"


class TestAdmin:
    def test_dbsize_counts_strings_and_hashes(self, store):
        store.set("a", b"1")
        store.hset("h", "f", b"2")
        assert store.dbsize() == 2
        store.delete("a", "h")
        assert store.dbsize() == 0
