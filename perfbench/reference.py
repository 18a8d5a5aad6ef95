"""Fixed reference job, the yardstick for ``wall_ref``.

    python3 perfbench/reference.py

run.py times this script (spawn to exit) just before every round and
divides the round's wall time by it.  On a shared host the speed of a
process drifts by up to 2x for seconds to minutes; both times drift
together, so their ratio is steadier than either.  The job mixes what a
qmap command does: interpreter start, numpy and scipy imports, tuple-keyed
dict counting in pure Python, and small matrix-vector products with a sort.
It must never change: a change rescales ``wall_ref`` on every workload.
"""

import numpy as np
import scipy.special  # noqa: F401  -- import cost, like qmap's scipy import

counts: dict = {}
for i in range(200_000):
    key = (i % 97, i % 13)
    counts[key] = counts.get(key, 0) + 1

a = np.random.default_rng(0).standard_normal((128, 256))
x = np.zeros(256)
for _ in range(1500):
    x = x + 1e-3 * (a.T @ (a @ x - 1.0))
    np.argsort(-x, kind="stable")
