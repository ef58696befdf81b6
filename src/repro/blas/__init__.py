"""cuBLAS-like linear-algebra layer over the simulated device.

Functional results are exact NumPy; simulated time is charged per call
via the device cost models.  ``hgemm``/``batched_hgemm`` model FP16
accumulation (overflow detection included), which is what makes the
paper's Table 2 scale-factor study reproducible.
"""

from .gemm import FP16_MAX, batched_hgemm, hgemm, sgemm

__all__ = [
    "FP16_MAX",
    "batched_hgemm",
    "hgemm",
    "sgemm",
]
