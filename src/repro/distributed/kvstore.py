"""Redis-like in-memory key-value store.

Sec. 8 runs one Redis container as the durable store of serialized
feature matrices; GPU containers hydrate their caches from it.  This
in-process stand-in implements the subset the system uses — string
keys with binary values, hashes, key scans — with the same
semantics (bytes in, bytes out).
"""

from __future__ import annotations

import fnmatch
import threading

__all__ = ["KVStore"]


class KVStore:
    """A small, thread-safe Redis workalike."""

    def __init__(self) -> None:
        self._strings: dict[str, bytes] = {}
        self._hashes: dict[str, dict[str, bytes]] = {}
        #: per string-key write counter; version 0 means "never written"
        #: (or deleted), so a fresh create acks as version 1.
        self._versions: dict[str, int] = {}
        self._lock = threading.RLock()
        self._read_fault = None

    def set_read_fault(self, hook) -> None:
        """Install a blob-loss hook for fault injection.

        ``hook(key) -> bool`` is consulted on every :meth:`get`; a true
        return makes the key read back as missing (the stored bytes are
        untouched, mirroring an unreachable/corrupt Redis entry rather
        than a deletion).  Pass ``None`` to clear.
        """
        self._read_fault = hook

    # -- string commands ------------------------------------------------
    def set(self, key: str, value: bytes) -> None:
        if not isinstance(value, (bytes, bytearray)):
            raise TypeError("values must be bytes")
        with self._lock:
            name = str(key)
            self._strings[name] = bytes(value)
            self._versions[name] = self._versions.get(name, 0) + 1

    def get(self, key: str) -> bytes | None:
        if self._read_fault is not None and self._read_fault(str(key)):
            return None
        with self._lock:
            return self._strings.get(str(key))

    def delete(self, *keys: str) -> int:
        removed = 0
        with self._lock:
            for key in keys:
                name = str(key)
                if self._strings.pop(name, None) is not None:
                    removed += 1
                    # versions stay monotonic across delete/re-create
                    self._versions[name] = self._versions.get(name, 0) + 1
                if self._hashes.pop(name, None) is not None:
                    removed += 1
        return removed

    def exists(self, key: str) -> bool:
        with self._lock:
            return str(key) in self._strings or str(key) in self._hashes

    def keys(self, pattern: str = "*") -> list[str]:
        with self._lock:
            names = set(self._strings) | set(self._hashes)
        return sorted(name for name in names if fnmatch.fnmatchcase(name, pattern))

    # -- versions -----------------------------------------------------------
    def version(self, key: str) -> int:
        """Current write-version of a string key.

        Monotonic per key across overwrites *and* deletes; ``0`` means
        the key has never been written.  A missing-but-once-written key
        keeps its counter, so a recycled key never looks new (no ABA).
        """
        with self._lock:
            return self._versions.get(str(key), 0)

    # -- hash commands ---------------------------------------------------
    def hset(self, key: str, field: str, value: bytes) -> None:
        if not isinstance(value, (bytes, bytearray)):
            raise TypeError("values must be bytes")
        with self._lock:
            self._hashes.setdefault(str(key), {})[str(field)] = bytes(value)

    def hget(self, key: str, field: str) -> bytes | None:
        with self._lock:
            return self._hashes.get(str(key), {}).get(str(field))

    def hdel(self, key: str, *fields: str) -> int:
        removed = 0
        with self._lock:
            bucket = self._hashes.get(str(key))
            if bucket is None:
                return 0
            for field in fields:
                if bucket.pop(str(field), None) is not None:
                    removed += 1
            if not bucket:
                del self._hashes[str(key)]
        return removed

    def hgetall(self, key: str) -> dict[str, bytes]:
        with self._lock:
            return dict(self._hashes.get(str(key), {}))

    # -- admin -------------------------------------------------------------
    def dbsize(self) -> int:
        with self._lock:
            return len(self._strings) + len(self._hashes)

    # -- persistence (RDB-style snapshot) -----------------------------------
    def dump(self) -> bytes:
        """Snapshot the whole store to bytes (Redis RDB analogue).

        Format: magic, then length-prefixed entries — kind byte (0 =
        string, 1 = hash field), key, [field,] value.
        """
        from .serialization import encode_varint

        def blob(data: bytes) -> bytes:
            return encode_varint(len(data)) + data

        out = [b"KVS1"]
        with self._lock:
            for key, value in sorted(self._strings.items()):
                out.append(b"\x00" + blob(key.encode()) + blob(value))
            for key, bucket in sorted(self._hashes.items()):
                for field, value in sorted(bucket.items()):
                    out.append(b"\x01" + blob(key.encode()) + blob(field.encode()) + blob(value))
        return b"".join(out)

    def restore(self, data: bytes) -> int:
        """Replace the store's contents with a :meth:`dump` snapshot;
        returns the number of entries loaded."""
        from ..errors import SerializationError
        from .serialization import decode_varint

        if not data.startswith(b"KVS1"):
            raise SerializationError("not a KV snapshot (bad magic)")

        def read_blob(pos: int) -> tuple[bytes, int]:
            length, pos = decode_varint(data, pos)
            if pos + length > len(data):
                raise SerializationError("truncated KV snapshot")
            return data[pos : pos + length], pos + length

        strings: dict[str, bytes] = {}
        hashes: dict[str, dict[str, bytes]] = {}
        pos = 4
        count = 0
        while pos < len(data):
            kind = data[pos]
            pos += 1
            key, pos = read_blob(pos)
            if kind == 0:
                value, pos = read_blob(pos)
                strings[key.decode()] = value
            elif kind == 1:
                field, pos = read_blob(pos)
                value, pos = read_blob(pos)
                hashes.setdefault(key.decode(), {})[field.decode()] = value
            else:
                raise SerializationError(f"unknown snapshot entry kind {kind}")
            count += 1
        with self._lock:
            self._strings = strings
            self._hashes = hashes
            # snapshots predate the version ledger: every restored key
            # re-enters at version 1, as if freshly created
            self._versions = {name: 1 for name in strings}
        return count
