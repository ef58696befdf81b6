"""Shard placement for the distributed system.

The paper allocates reference matrices "equally to those 14 GPU
containers": round-robin, which balances perfectly.  One stateful
cursor walks the shard list; adding or removing a shard keeps it in
range.
"""

from __future__ import annotations

__all__ = ["RoundRobinPlacement"]


class RoundRobinPlacement:
    """The paper's equal-allocation policy (stateful cursor): maps
    reference ids to node ids over a mutable node set."""

    def __init__(self, node_ids: list[str] | None = None) -> None:
        self._nodes: list[str] = list(node_ids or [])
        self._cursor = 0

    def add_node(self, node_id: str) -> None:
        if node_id in self._nodes:
            raise ValueError(f"duplicate node {node_id!r}")
        self._nodes.append(node_id)

    def remove_node(self, node_id: str) -> None:
        self._nodes.remove(node_id)
        if self._nodes:
            self._cursor %= len(self._nodes)

    def place(self, ref_id: str) -> str:
        """Node that owns ``ref_id``; advances the cursor."""
        node = self.peek(ref_id)
        self._cursor = (self._cursor + 1) % len(self._nodes)
        return node

    def peek(self, ref_id: str) -> str:
        """Node :meth:`place` would pick for ``ref_id``, without
        advancing the cursor — callers that must inspect the target
        before committing (gate-before-mutate enrollment) peek first,
        then place."""
        if not self._nodes:
            raise ValueError("no nodes registered")
        return self._nodes[self._cursor]
