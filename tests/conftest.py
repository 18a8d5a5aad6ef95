import numpy as np
import pytest

from qmap.quantize import build_alphabet
from qmap.sources import QuantKernel, WeightTable, stationary_context_law


def random_weight_table(rng: np.random.Generator, size: int, k: int,
                        inf_frac: float = 0.0) -> WeightTable:
    """Random nonnegative weights over a small alphabet, with optional +inf
    entries but always at least one finite weight per context row."""
    alphabet = build_alphabet(0.0, size * 0.25, 2)
    assert alphabet.size == size
    w = rng.exponential(1.0, size=(size,) * (k + 1))
    if inf_frac > 0:
        w = np.where(rng.random(w.shape) < inf_frac, np.inf, w)
        flat = w.reshape(-1, size)
        for row in range(flat.shape[0]):
            if not np.isfinite(flat[row]).any():
                flat[row, int(rng.integers(size))] = float(rng.exponential(1.0))
    return WeightTable(alphabet=alphabet, k=k, w=w)


def random_kernel(rng: np.random.Generator, size: int, k: int) -> QuantKernel:
    """Random full-support kernel with its stationary context marginal."""
    alphabet = build_alphabet(0.0, size * 0.25, 2)
    raw = rng.exponential(1.0, (size,) * (k + 1)) + 0.05
    cond = raw / raw.sum(axis=-1, keepdims=True)
    return QuantKernel(alphabet=alphabet, k=k, cond=cond,
                       marginal=stationary_context_law(cond, k))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260810)
