"""b-bit scalar/vector quantization and the finite quantized alphabet.

The quantizer truncates the binary expansion of the fractional part to b
bits, i.e. it always rounds toward -inf with step 2**-b.  All operations
are exact in binary floating point because scaling by 2**b and flooring
are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def quantize_scalar(x: float, b: int) -> float:
    """Truncate x to the 2**-b grid (round toward -inf).

    Returns floor(x) plus the first b binary digits of x - floor(x), so
    0 <= x - quantize_scalar(x, b) < 2**-b for every finite x.
    """
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    scale = float(2 ** b)
    fl = math.floor(x)
    # frac in [0, 1); frac * 2**b and the division below are exact float ops.
    frac = x - fl
    return fl + math.floor(frac * scale) / scale


@dataclass(frozen=True)
class QuantAlphabet:
    """Ordered grid of b-bit quantized values covering [lo, hi).

    Cells are half-open [j*2**-b, (j+1)*2**-b); the right endpoint hi
    belongs to the last cell, so no zero-mass endpoint symbol exists.
    """

    b: int
    lo: float
    hi: float
    values: np.ndarray

    @property
    def size(self) -> int:
        return len(self.values)

    @property
    def step(self) -> float:
        return 2.0 ** -self.b

    def __len__(self) -> int:
        return len(self.values)

    def zero_index(self) -> int | None:
        """Index of the value 0.0, or None when the grid does not hold it."""
        # values[j] = (i0 + j) * step exactly, so 0.0 sits at j = -i0
        j = -int(self.values[0] * 2 ** self.b)
        return j if 0 <= j < self.size else None

    def contains_zero(self) -> bool:
        return self.zero_index() is not None


def build_alphabet(lo: float, hi: float, b: int) -> QuantAlphabet:
    """Enumerate the grid points [x]_b for x in [lo, hi).

    lo and hi may be off-grid; lo is snapped down and hi acts as an
    exclusive upper edge for the grid points themselves.
    """
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("lo and hi must be finite")
    if lo >= hi:
        raise ValueError(f"need lo < hi, got lo={lo}, hi={hi}")
    scale = float(2 ** b)
    i0 = math.floor(lo * scale)
    hb = hi * scale
    i1 = math.floor(hb)
    if hb == i1:
        i1 -= 1  # hi on the grid: last cell starts one step below it
    values = np.arange(i0, i1 + 1) / scale
    return QuantAlphabet(b=b, lo=lo, hi=hi, values=values)


def quantize_vector(x: np.ndarray, alphabet: QuantAlphabet) -> np.ndarray:
    """Quantize each coordinate and return symbol indices into the alphabet.

    Every coordinate must lie in [lo, hi]; hi itself maps to the last cell.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("expected a 1-D vector")
    bad = np.flatnonzero(~((x >= alphabet.lo) & (x <= alphabet.hi) & np.isfinite(x)))
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"coordinate {i} = {x[i]!r} outside alphabet range "
            f"[{alphabet.lo}, {alphabet.hi}]"
        )
    scale = float(2 ** alphabet.b)
    i0 = math.floor(alphabet.lo * scale)
    idx = np.floor(x * scale).astype(np.int64) - i0
    # the closed right endpoint folds into the final half-open cell
    return np.minimum(idx, alphabet.size - 1)
