"""Top-k selection (Sec. 4.1): the functional body of both selection
strategies the paper compares.

The proposed register-resident top-2 scan and the Garcia et al. [9]
modified insertion sort select the same winners; they differ only in
their simulated cost (:func:`repro.gpusim.kernels.top2_scan_us` and
:func:`~repro.gpusim.kernels.insertion_sort_us`, 81.9 % apart at batch
1, Table 1), which each kernel lists in its step list.
:func:`functional_topk` returns ``(values, indices)`` with shape ``(k,
columns)``, smallest first, over the *rows* of the input (one column =
one query feature's distance vector, as in Algorithm 1).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["functional_topk"]


def _stable_topk(a: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    idx = np.argsort(a, axis=0, kind="stable")[:k, :]
    return np.take_along_axis(a, idx, axis=0), idx


def functional_topk(
    a: np.ndarray, k: int, largest: bool = False
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Smallest ``k`` values (and row indices) of each column of ``a``.

    Deterministic tie-breaking: ties resolve to the lower row index,
    matching what a sequential scan produces.  For k ≪ m the selection
    is Sec. 4.1's ``k`` running minima: one ``argmin`` pass per winner
    (first occurrence = lower row), the winner read and masked with
    ``+inf`` through its flat index in the F-ordered buffer (row + column
    · m) before the next pass, and every masked entry put back before
    returning, so ``a`` is unchanged after the call.  An ``a`` that is
    not F-contiguous, or not writeable, is selected from an F-ordered
    copy: the passes scan contiguous columns, and the flat index needs
    that layout.

    ``largest=True`` is the values-only mirror image for a caller that
    owns ``a`` and is done with it: the ``k`` largest values, largest
    first and with multiplicity, of columns free of NaN and ``-inf``;
    no indices (``None``), and the winners stay masked with ``-inf`` (in
    ``a`` itself when it is F-contiguous and writeable).
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"expected (m, columns), got shape {a.shape}")
    m, cols = a.shape
    if not (1 <= k <= m):
        raise ValueError(f"k={k} out of range for m={m}")
    if 4 * k >= m or a.dtype.kind != "f":
        # k is a sizable fraction of m (a stable full sort is both
        # simpler and no slower), or the dtype has no +inf to mask with.
        return (np.sort(a, axis=0)[: -k - 1 : -1], None) if largest else _stable_topk(a, k)
    work = a if a.flags.f_contiguous and a.flags.writeable else np.array(a, order="F")
    flat = work.ravel(order="F")  # a view: element (row, column) sits at row + column·m
    vals = np.empty((k, cols), dtype=a.dtype)
    idx = np.empty((k, cols), dtype=np.intp)
    at = np.empty((k, cols), dtype=np.intp)
    column_starts = np.arange(0, cols * m, m, dtype=np.intp)
    found = 0
    pick, mask = (np.argmax, -np.inf) if largest else (np.argmin, np.inf)
    try:
        for j in range(k):
            pick(work, axis=0, out=idx[j])
            np.add(idx[j], column_starts, out=at[j])
            np.take(flat, at[j], out=vals[j])
            found = j + 1
            flat[at[j]] = mask
    finally:
        if not largest and work is a:
            # earliest pick written last: a pass that re-picks a masked
            # entry must not leave the mask behind
            for j in reversed(range(found)):
                flat[at[j]] = vals[j]
    if largest:
        return vals, None
    # A winner that is not < +inf is a NaN (argmin's first pick, a
    # stable sort's last) or ties with the mask itself: those columns
    # take the sort's order.
    unordered = ~(vals < np.inf).all(axis=0)
    if unordered.any():
        vals[:, unordered], idx[:, unordered] = _stable_topk(a[:, unordered], k)
    return vals, idx

