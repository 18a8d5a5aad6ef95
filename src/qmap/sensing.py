"""Gaussian design matrices and noisy linear measurement."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SCALES = ("unit", "normalized")


@dataclass(frozen=True)
class SenseMatrix:
    """Design matrix with i.i.d. normal entries.

    scale 'unit' means N(0,1) entries (step size 1/m); 'normalized' means
    N(0,1/n) entries (step size n/m).
    """

    m: int
    n: int
    entries: np.ndarray
    scale: str

    def __post_init__(self):
        if self.scale not in SCALES:
            raise ValueError(f"scale must be one of {SCALES}, got {self.scale!r}")
        if self.entries.shape != (self.m, self.n):
            raise ValueError(f"entries shape {self.entries.shape} != ({self.m}, {self.n})")

    @property
    def paired_step(self) -> float:
        """Step size the convergence analysis pairs with this scaling."""
        return 1.0 / self.m if self.scale == "unit" else self.n / self.m


def gen_gaussian(m: int, n: int, scale: str, seed: int) -> SenseMatrix:
    """i.i.d. Gaussian design, entries drawn row-major so the result is
    reproducible bit-exactly from (m, n, scale, seed)."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}, got {scale!r}")
    entries = np.random.default_rng(seed).standard_normal((m, n))
    if scale == "normalized":
        entries = entries / math.sqrt(n)
    return SenseMatrix(m=m, n=n, entries=entries, scale=scale)


def measure(A: SenseMatrix, x: np.ndarray, sigma: float, seed: int) -> np.ndarray:
    """y = A x + z with z i.i.d. N(0, sigma^2); sigma = 0 gives exact A x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (A.n,):
        raise ValueError(f"x has shape {x.shape}, expected ({A.n},)")
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    y = A.entries @ x
    if sigma > 0:
        y = y + sigma * np.random.default_rng(seed).standard_normal(A.m)
    return y
