"""RootSIFT transform (Arandjelovic & Zisserman, Sec. 5.1 of the paper).

Each SIFT descriptor is L1-normalised and element-wise square-rooted.
The Euclidean distance between RootSIFT vectors equals the Hellinger
kernel distance between the original SIFT histograms, and — crucially
for Algorithm 2 — every RootSIFT vector has unit L2 norm, so

    rho^2(r, q) = 2 - 2 r.q

and the ``N_R``/``N_Q`` vectors of Algorithm 1 disappear entirely.
"""

from __future__ import annotations

import numpy as np

__all__ = ["rootsift", "l2_normalize", "is_unit_normalized"]

_EPS = 1e-12


def _finite(norms: np.ndarray, kind: str) -> np.ndarray:
    """Dividing by an overflowed column norm would store the whole image as
    exact zeros — a reference nothing can ever match — so refuse it."""
    if not np.all(np.isfinite(norms)):
        raise ValueError(f"a descriptor column's {kind} norm is not finite in float32")
    return norms


def rootsift(descriptors: np.ndarray) -> np.ndarray:
    """Apply RootSIFT column-wise to a ``(d, count)`` descriptor matrix.

    Descriptors must be non-negative (SIFT histograms are).  Zero
    columns are passed through as zeros.
    """
    d = np.asarray(descriptors, dtype=np.float32)
    if d.ndim != 2:
        raise ValueError(f"expected (d, count) matrix, got shape {d.shape}")
    if np.any(d < 0):
        raise ValueError("RootSIFT requires non-negative descriptors")
    with np.errstate(over="ignore"):  # reported as an error instead
        l1 = _finite(d.sum(axis=0, keepdims=True), "L1")
    safe = np.maximum(l1, _EPS)
    return np.sqrt(d / safe, dtype=np.float32)


def l2_normalize(descriptors: np.ndarray) -> np.ndarray:
    """Column-wise L2 normalisation (unit norm without the Hellinger
    mapping).

    The Algorithm-2 simplification only needs *unit-norm* features;
    RootSIFT is the right mapping for SIFT histograms, while signed
    descriptors (SURF's Haar sums) use plain L2 normalisation — the
    conventional SURF normalisation anyway.
    """
    d = np.asarray(descriptors, dtype=np.float32)
    if d.ndim != 2:
        raise ValueError(f"expected (d, count) matrix, got shape {d.shape}")
    with np.errstate(over="ignore"):  # reported as an error instead
        norms = _finite(np.linalg.norm(d, axis=0, keepdims=True), "L2")
    return d / np.maximum(norms, _EPS)


def is_unit_normalized(descriptors: np.ndarray, atol: float = 1e-4) -> bool:
    """True if every non-zero column has unit L2 norm (RootSIFT output)."""
    d = np.asarray(descriptors, dtype=np.float64)
    norms = np.sqrt(np.einsum("dc,dc->c", d, d))
    nonzero = norms > _EPS
    return bool(np.all(np.abs(norms[nonzero] - 1.0) <= atol))
