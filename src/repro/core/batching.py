"""Batching of reference feature matrices (Sec. 5.2, Fig. 3).

Individually, one 768 x 128 reference matrix offers too little data
reuse to fill a GPU; stacking ``batch_size`` of them into a single
batched GEMM raises arithmetic intensity and is the paper's second
optimization.  :class:`BatchBuilder` accumulates prepared reference
matrices into fixed-shape ``(batch, d, m)`` blocks; the block is also
the swap granularity of the hybrid cache (Sec. 6.1).  A block knows its
references only by their integer slots: which external id a slot holds,
if any, is the engine's table, not the batch's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ReferenceBatch", "BatchBuilder"]


@dataclass
class ReferenceBatch:
    """One GEMM-ready stack of reference matrices.

    ``tensor`` is ``(size, d, m)`` in engine precision (FP16 values are
    pre-scaled); ``norms`` is ``(size, m)`` when Algorithm 1 needs the
    ``N_R`` vectors, else ``None``.  ``aux`` carries kernel-specific
    per-image side data — the cascade prefilter's ``(size, m, words)``
    packed sign-bit codes — and is counted into :attr:`nbytes`, so the
    hybrid cache's capacity, eviction and ``remove()`` accounting cover
    it exactly like the feature tensors (the batch is the swap unit).
    ``slots`` is the ``(size,)`` int64 array of the engine slots its
    images were enrolled at, consecutive and in enrolment order.
    """

    batch_id: int
    slots: np.ndarray
    tensor: np.ndarray
    norms: np.ndarray | None = None
    aux: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.tensor.shape[0]

    @property
    def nbytes(self) -> int:
        total = self.tensor.nbytes
        if self.norms is not None:
            total += self.norms.nbytes
        if self.aux is not None:
            total += self.aux.nbytes
        return total

    def __post_init__(self) -> None:
        if self.tensor.ndim != 3:
            raise ValueError(f"tensor must be (batch, d, m), got {self.tensor.shape}")
        if self.slots.shape != (self.tensor.shape[0],):
            raise ValueError(
                f"{self.slots.shape} slots for a batch of {self.tensor.shape[0]}"
            )
        if self.norms is not None and self.norms.shape != (
            self.tensor.shape[0],
            self.tensor.shape[2],
        ):
            raise ValueError(f"norms shape {self.norms.shape} does not match tensor")
        if self.aux is not None and self.aux.shape[0] != self.tensor.shape[0]:
            raise ValueError(
                f"aux leading dim {self.aux.shape[0]} != batch size {self.tensor.shape[0]}"
            )


class BatchBuilder:
    """Accumulates reference matrices into :class:`ReferenceBatch` blocks.

    Matrices must share the ``(d, m)`` shape (the engine pads/trims to
    the configured ``m`` before adding).  The in-progress batch is
    flushed automatically when full, or explicitly via :meth:`flush`
    (the final, possibly partial batch).
    """

    def __init__(
        self,
        batch_size: int,
        d: int,
        m: int,
        keep_norms: bool = False,
        keep_aux: bool = False,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.batch_size = int(batch_size)
        self.d = int(d)
        self.m = int(m)
        self.keep_norms = keep_norms
        self.keep_aux = keep_aux
        self._slots: list[int] = []
        self._matrices: list[np.ndarray] = []
        self._norms: list[np.ndarray] = []
        self._aux: list[np.ndarray] = []
        self._next_batch_id = 0

    def add(
        self,
        slot: int,
        matrix: np.ndarray,
        norms: np.ndarray | None = None,
        aux: np.ndarray | None = None,
    ) -> ReferenceBatch | None:
        """Add one prepared matrix at ``slot``; returns a batch if one just filled."""
        matrix = np.asarray(matrix)
        if matrix.shape != (self.d, self.m):
            raise ValueError(
                f"matrix shape {matrix.shape} != expected ({self.d}, {self.m})"
            )
        if self.keep_norms:
            if norms is None:
                raise ValueError("this builder requires N_R norms per matrix")
            norms = np.asarray(norms)
            if norms.shape != (self.m,):
                raise ValueError(f"norms shape {norms.shape} != ({self.m},)")
            self._norms.append(norms)
        if self.keep_aux:
            if aux is None:
                raise ValueError("this builder requires per-matrix aux data")
            self._aux.append(np.asarray(aux))
        self._slots.append(int(slot))
        self._matrices.append(matrix)
        if len(self._slots) == self.batch_size:
            return self.flush()
        return None

    @property
    def pending(self) -> int:
        return len(self._slots)

    def pending_matrix(self, position: int) -> np.ndarray:
        """The matrix of a pending (unsealed) slot."""
        return self._matrices[position]

    def flush(self) -> ReferenceBatch | None:
        """Emit the in-progress (possibly partial) batch, or ``None``."""
        if not self._slots:
            return None
        tensor = np.stack(self._matrices, axis=0)
        norms = np.stack(self._norms, axis=0) if self.keep_norms else None
        aux = np.stack(self._aux, axis=0) if self.keep_aux else None
        batch = ReferenceBatch(
            batch_id=self._next_batch_id, slots=np.array(self._slots, dtype=np.int64),
            tensor=tensor, norms=norms, aux=aux,
        )
        self._next_batch_id += 1
        self._slots = []
        self._matrices = []
        self._norms = []
        self._aux = []
        return batch
