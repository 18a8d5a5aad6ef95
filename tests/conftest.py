import numpy as np
import pytest

from qmap.quantize import build_alphabet
from qmap.sources import QuantKernel, WeightTable, stationary_context_law

# small configs of each CLI command, shared by the CLI and schema tests
RECOVER_CFG = {
    "model": {"kind": "spike_slab", "p": 0.05},
    "n": 48, "m": 24, "b": 5, "k": 0,
    "projector": {"kind": "l0", "s": 5},
    "trials": 3, "seed": 21,
}

PHASE_CFG = {
    "model": {"kind": "spike_slab", "p": 0.1},
    "n": 32, "b": 5, "k": 0,
    "projector": {"kind": "l0", "s": 6},
    "m_over_n": [0.25, 0.75],
    "trials": 3, "seed": 13,
}

INFODIM_CFG = {"model": {"kind": "spike_slab", "p": 0.1}, "k": 0, "b_list": [2, 4]}

VALIDATE_CFG = {
    "seed": 4,
    "suites": {"chi_square": [{"m": 10, "tau": 1.0, "trials": 4000}]},
}

PROJECT_CFG = {"model": {"kind": "pc_markov", "p": 0.3}, "b": 2}


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
