"""b-bit vector quantization and the finite quantized alphabet.

The quantizer truncates the binary expansion of the fractional part to b
bits, i.e. it always rounds toward -inf with step 2**-b.  All operations
are exact in binary floating point because scaling by 2**b and flooring
are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QuantAlphabet:
    """Ordered grid of b-bit quantized values, values[j] = (i0 + j) * 2**-b.

    Cells are half-open [v, v + 2**-b); their union is the range [lo, hi]
    = [values[0], values[-1] + 2**-b], whose right endpoint hi belongs to
    the last cell, so no zero-mass endpoint symbol exists.
    """

    b: int
    values: np.ndarray

    @property
    def size(self) -> int:
        return len(self.values)

    @property
    def lo(self) -> float:
        return float(self.values[0])

    @property
    def hi(self) -> float:
        return float(self.values[-1]) + 2.0 ** -self.b

    def zero_index(self) -> int | None:
        """Index of the value 0.0, or None when the grid does not hold it."""
        # values[j] = (i0 + j) * step exactly, so 0.0 sits at j = -i0
        j = -int(self.values[0] * 2 ** self.b)
        return j if 0 <= j < self.size else None


def build_alphabet(lo: float, hi: float, b: int) -> QuantAlphabet:
    """Enumerate the grid points [x]_b for x in [lo, hi).

    lo and hi may be off-grid; lo is snapped down and hi acts as an
    exclusive upper edge for the grid points themselves, so the alphabet's
    own range snaps outward to cell edges.
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
    return QuantAlphabet(b=b, values=values)


def quantize_vector(x: np.ndarray, alphabet: QuantAlphabet) -> np.ndarray:
    """Quantize each coordinate and return symbol indices into the alphabet.

    Every coordinate must lie in the union of the cells, [lo, hi] =
    [values[0], values[-1] + 2**-b]; hi itself maps to the last cell.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("expected a 1-D vector")
    # min and max are NaN if any coordinate is, and NaN fails both bounds;
    # only then is every coordinate scanned, to name the first bad one
    lo, hi = alphabet.lo, alphabet.hi
    if x.size and not (lo <= x.min() and x.max() <= hi):
        i = int(np.flatnonzero(~((x >= lo) & (x <= hi)))[0])
        raise ValueError(f"coordinate {i} = {float(x[i])!r} outside alphabet range [{lo}, {hi}]")
    scale = float(2 ** alphabet.b)
    scaled = x * scale
    idx = np.floor(scaled, out=scaled).astype(np.int64)
    idx -= int(lo * scale)
    # the closed right endpoint folds into the final half-open cell
    return np.minimum(idx, alphabet.size - 1, out=idx)
