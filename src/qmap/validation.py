"""Monte Carlo checks of the concentration bounds used in the analysis.

Every estimator is deterministic given its parameters and seed, and reports
the matching theoretical bound next to a p-value: the probability, were the
bound the true tail, of data at least as extreme as the data drawn.  An
estimate respects its bound unless that p-value is at most REJECT_LEVEL, so
a correct program fails an entry on no more than about one seed in a
million.  Bounds that blow up at desk scale are flagged as vacuous instead
of being silently clipped.  f_minimax evaluates its exponent on batches of
alpha rows and of concatenated refinement grids, holding at most _F_CELLS
cells at once, and returns the value of the per-alpha scan bit for bit.
Only numpy and the standard library are used.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .quantize import quantize_vector
from .sources import SourceModel, ktuple_law, quantized_kernel, sample_runs

C_TYPES = 1.0 / (2.0 * math.log(2.0))  # constant in the type-deviation bounds
_Z95 = 1.959963984540054
# a bound is rejected when data at least as extreme have at most this
# probability under it
REJECT_LEVEL = 1e-6
# array cells of working space a sampler holds per block, beyond the arrays
# its random stream makes it keep, so its memory is bounded whatever
# `trials`.  Every sampler reads its stream in the same order at any block,
# so no hits depend on it.
_BLOCK = 2 ** 16
# exponent values f_minimax evaluates in one call, unless one alpha row or
# one refinement grid alone is longer; the call holds a few temporaries of
# that size
_F_CELLS = _BLOCK // 4
# inner_product_tail draws all chi-square variables of a period of this many
# trials, then its normals.  It fixes the stream format, not the memory use:
# changing it changes the hits above this many trials.
_INNER_PRODUCT_PERIOD = 2 ** 18
# inner_product_bound minimises its exponent over this many evenly spaced
# interior points of the s domain
_INNER_PRODUCT_S_POINTS = 2000


@dataclass
class TailEstimate:
    """A Monte Carlo tail probability next to its theoretical bound.

    p_value defaults to the exact binomial tail P(Bin(trials, bound) >= hits).
    """

    name: str
    trials: int
    hits: int
    estimate: float
    ci_low: float
    ci_high: float
    bound: float
    params: dict = field(default_factory=dict)
    extra_ok: bool = True  # side conditions beyond the bound's own test
    p_value: float | None = None

    def __post_init__(self):
        if self.p_value is None:
            self.p_value = binomial_tail(self.hits, self.trials, self.bound)

    @property
    def bound_vacuous(self) -> bool:
        return not (self.bound < 1.0)

    @property
    def respects_bound(self) -> bool:
        return self.p_value > REJECT_LEVEL and self.extra_ok

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "trials": self.trials,
            "hits": self.hits,
            "estimate": self.estimate,
            "ci95": [self.ci_low, self.ci_high],
            "bound": self.bound if math.isfinite(self.bound) else None,
            "bound_vacuous": self.bound_vacuous,
            "p_value": self.p_value,
            "respects_bound": self.respects_bound,
            "params": _jsonable(self.params),
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def binomial_tail(hits: int, trials: int, p: float) -> float:
    """P(Bin(trials, p) >= hits), exact but for rounding.

    The terms are summed from the one nearest the mean outward, each from
    its neighbour by the pmf ratio, and the sum stops once the terms left
    are below 2^-60 of it: O(sqrt(trials p) + 1) terms.  The first term is
    taken in log space (math.lgamma), so a tail far below the smallest
    double comes out as 0, not NaN; its lgamma terms are off by up to about
    trials * log(trials) units in the last place, a relative error of 2e-10
    at 1e5 trials.  When hits - 1 lies below the mean, the lower tail
    P(Bin <= hits - 1) is summed and subtracted from 1.
    """
    if hits <= 0 or not p < 1.0:
        return 1.0
    if p <= 0.0:
        return 0.0
    odds = p / (1.0 - p)
    upper = hits - 1 >= trials * p
    j = hits if upper else hits - 1
    log_first = (math.lgamma(trials + 1) - math.lgamma(j + 1) - math.lgamma(trials - j + 1)
                 + j * math.log(p) + (trials - j) * math.log1p(-p))
    total = term = 1.0
    while True:
        # the ratio of the next term to this one only falls from here on; it
        # is 0 at j = trials going up and at j = 0 going down
        ratio = (trials - j) / (j + 1) * odds if upper else j / ((trials - j + 1) * odds)
        term *= ratio
        total += term
        j += 1 if upper else -1
        if ratio < 1.0 and term / (1.0 - ratio) <= 2.0 ** -60 * total:
            break
    log_sum = log_first + math.log(total)
    return math.exp(log_sum) if upper else max(0.0, -math.expm1(log_sum))


def normal_cdf(x) -> np.ndarray:
    """Phi(x) = erfc(-x / sqrt(2)) / 2, elementwise: math.erfc of each
    element, written straight into a float array."""
    z = -np.asarray(x, dtype=float) / math.sqrt(2.0)
    cdf = np.fromiter(map(math.erfc, z.flat), dtype=float, count=z.size).reshape(z.shape)
    cdf *= 0.5
    return cdf


def _binomial_estimate(name: str, hits: int, trials: int, bound: float,
                       params: dict) -> TailEstimate:
    p_hat = hits / trials
    # normal approximation with continuity correction; adequate at >= 2000 trials
    half = _Z95 * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / trials) + 0.5 / trials
    return TailEstimate(
        name=name,
        trials=trials,
        hits=hits,
        estimate=p_hat,
        ci_low=max(0.0, p_hat - half),
        ci_high=min(1.0, p_hat + half),
        bound=bound,
        params=params,
    )


def type_deviation_bound(n: int, k: int, g: int, epsilon: float,
                         alphabet_size: int) -> tuple[float, float]:
    """(bound, log2 of bound) for the k-type l1 deviation of a mixing chain:

        2^{c eps^2 / 8} (k+g) n^{S^k} 2^{- n c eps^2 / (8 (k+g))}.
    """
    log2 = (
        C_TYPES * epsilon ** 2 / 8.0
        + math.log2(k + g)
        + alphabet_size ** k * math.log2(n)
        - n * C_TYPES * epsilon ** 2 / (8.0 * (k + g))
    )
    return (2.0 ** log2 if log2 < 1023 else math.inf), log2


def markov_type_deviation_bound(n: int, k: int, g: int, epsilon: float,
                                alphabet_size: int) -> tuple[float, float]:
    """Same tail with the 2^{c eps^2 / 4} prefactor that the quantized-Markov
    chain analysis carries."""
    bound, log2 = type_deviation_bound(n, k, g, epsilon, alphabet_size)
    extra = C_TYPES * epsilon ** 2 / 8.0
    log2 += extra
    return (2.0 ** log2 if log2 < 1023 else math.inf), log2


def mc_empirical_deviation(
    model: SourceModel,
    n: int,
    k: int,
    b: int,
    epsilon: float,
    trials: int,
    seed: int,
    g: int = 8,
) -> TailEstimate:
    """Estimate P(||phat_k - mu_k||_1 >= epsilon) for the quantized model.

    Paths are sampled as runs, one value per run is quantized, and their
    k-th order types are compared to the exact k-tuple law of the kernel.
    All paths come from one generator, a block of rows at a time; no block
    is expanded into paths.  The gap parameter g enters only the
    reported bound (it is not constructive for general mixing sources).
    """
    if n <= k or trials < 1:
        raise ValueError("need n > k and trials >= 1")
    kernel = quantized_kernel(model, b)
    s = kernel.alphabet.size
    mu = ktuple_law(kernel, k).ravel()

    rng = np.random.default_rng(seed)
    hits = 0
    # a path row draws 2n uniforms and counts s^k k-types
    chunk = max(1, _BLOCK // max(2 * n, s ** k))
    for done in range(0, trials, chunk):
        t = min(chunk, trials - done)
        values, starts, lengths = sample_runs(model, n, t, rng)
        symbols = quantize_vector(values, kernel.alphabet)
        emp = _window_counts(symbols, starts, lengths, n, k, s, t) / (n - k + 1)
        dists = np.abs(emp - mu[None, :]).sum(axis=1)
        hits += int((dists >= epsilon).sum())

    bound, log2 = type_deviation_bound(n, k, g, epsilon, s)
    mk_bound, mk_log2 = markov_type_deviation_bound(n, k, g, epsilon, s)
    return _binomial_estimate(
        "empirical_deviation",
        hits,
        trials,
        bound,
        {
            "model": type(model).__name__,
            "n": n, "k": k, "b": b, "epsilon": epsilon, "g": g, "seed": seed,
            "bound_log2": log2,
            "markov_bound": mk_bound, "markov_bound_log2": mk_log2,
        },
    )


def _window_counts(symbols: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
                   n: int, k: int, s: int, rows: int) -> np.ndarray:
    """(rows, s^k) counts of the n - k + 1 k-windows of each length-n row,
    from the rows' runs: symbols, flat starts and lengths, no run crossing
    a row (the form of sources.sample_runs).  The code of a window is its
    symbols read as a base-s number.
    """
    if k == 0:
        return np.full((rows, 1), n + 1)
    cells = s ** k
    row = starts // n
    inside = np.maximum(lengths - (k - 1), 0)
    # a window inside one run repeats its symbol k times
    index = row * cells + symbols * sum(s ** j for j in range(k))
    weights = inside
    if k > 1:
        # the windows that start in a run and cross its end: at most k - 1
        # per run, and none past a row's last window start n - k
        first = starts + inside
        cross = np.maximum(np.minimum(starts + lengths - 1, row * n + n - k) - first + 1, 0)
        run = np.repeat(np.arange(len(starts)), cross)
        at = first[run] + np.arange(len(run)) - np.repeat(np.cumsum(cross) - cross, cross)
        code = symbols[run]
        for j in range(1, k):
            code = code * s + symbols[np.searchsorted(starts, at + j, side="right") - 1]
        index = np.concatenate([index, row[run] * cells + code])
        weights = np.concatenate([weights, np.ones_like(run)])
    return np.bincount(index, weights=weights, minlength=rows * cells).reshape(rows, cells)


def chi_square_upper_bound(m: int, tau: float) -> float:
    return math.exp(-0.5 * m * (tau - math.log1p(tau)))


def chi_square_lower_bound(m: int, tau: float) -> float:
    if tau >= 1.0:
        return 0.0
    return math.exp(0.5 * m * (tau + math.log1p(-tau)))


def chi_square_tail(m: int, tau: float, trials: int, seed: int
                    ) -> tuple[TailEstimate, TailEstimate]:
    """Estimates of P(sum U_i^2 > m(1+tau)) and P(sum U_i^2 < m(1-tau)) for
    standard normal U_i, next to their Chernoff bounds."""
    if m < 1 or tau <= 0 or trials < 1:
        raise ValueError("need m >= 1, tau > 0, trials >= 1")
    rng = np.random.default_rng(seed)
    upper_hits = lower_hits = 0
    for done in range(0, trials, _BLOCK):
        # the statistic is exactly chi-square(m): one draw per trial
        sums = rng.chisquare(m, min(_BLOCK, trials - done))
        upper_hits += int((sums > m * (1.0 + tau)).sum())
        lower_hits += int((sums < m * (1.0 - tau)).sum())
    params = {"m": m, "tau": tau, "seed": seed}
    upper = _binomial_estimate(
        "chi_square_upper",
        upper_hits,
        trials,
        chi_square_upper_bound(m, tau),
        params,
    )
    lower = _binomial_estimate(
        "chi_square_lower",
        lower_hits,
        trials,
        chi_square_lower_bound(m, tau),
        params,
    )
    return upper, lower


def inner_product_bound(alpha: float, tau: float, m: int) -> float:
    """min over s in (0, 1/(1-alpha)) of the Chernoff exponent bound
    exp(m (alpha - tau) s - (m/2) ln((1 + s alpha)^2 - s^2))."""
    s_hi = 1.0 / (1.0 - alpha)
    points = _INNER_PRODUCT_S_POINTS
    s = np.linspace(s_hi / points, s_hi * (1.0 - 1.0 / points), points)
    arg = (1.0 + s * alpha) ** 2 - s ** 2
    ok = arg > 0
    exponent = m * (alpha - tau) * s[ok] - 0.5 * m * np.log(arg[ok])
    return float(np.exp(exponent.min()))


def inner_product_tail(alpha: float, m: int, tau: float, trials: int,
                       seed: int) -> TailEstimate:
    """Estimate P((1/m) <Au, Av> - alpha <= -tau) for unit u, v at angle
    cos^-1(alpha).

    The statistic depends on (u, v) only through alpha: it is
    (1/m) <x, alpha x + sqrt(1 - alpha^2) z> for independent standard normal
    m-vectors x and z.  Given x, <x, z> is N(0, ||x||^2), so with
    Q = ||x||^2 ~ chi-square(m) and an independent G ~ N(0, 1) it equals in
    law, exactly,

        (alpha Q + sqrt(1 - alpha^2) sqrt(Q) G) / m,

    and each trial draws Q and G instead of 2m normals.  The stream holds,
    period by period of _INNER_PRODUCT_PERIOD trials, the period's Q draws
    and then its G draws, so the period fixes the hits above that many
    trials.  The statistic is formed _BLOCK trials at a time, in place and
    rounded as the whole-array expression rounds it, so the hits do not
    depend on _BLOCK, and the sampler holds the period's Q and two blocks.
    gaussian_projection_check deliberately keeps its direct draws: it is the
    Monte Carlo check of the fact this sampler rests on.
    """
    if not -1.0 < alpha < 1.0:
        raise ValueError("alpha must be in (-1, 1)")
    if m < 1 or tau <= 0 or trials < 1:
        raise ValueError("need m >= 1, tau > 0, trials >= 1")
    rng = np.random.default_rng(seed)
    hits = 0
    root = math.sqrt(1.0 - alpha ** 2)
    for done in range(0, trials, _INNER_PRODUCT_PERIOD):
        q = rng.chisquare(m, min(_INNER_PRODUCT_PERIOD, trials - done))
        g = np.empty(min(_BLOCK, q.size))
        stat = np.empty_like(g)
        for lo in range(0, q.size, _BLOCK):
            qb = q[lo:lo + _BLOCK]
            gb = rng.standard_normal(out=g[:qb.size])
            sb = stat[:qb.size]
            # (alpha q + sqrt(1 - alpha^2) sqrt(q) g) / m - alpha, one
            # operation at a time
            np.sqrt(qb, out=sb)
            sb *= root
            gb *= sb
            np.multiply(qb, alpha, out=sb)
            sb += gb
            sb /= m
            sb -= alpha
            hits += int(np.count_nonzero(sb <= -tau))
    return _binomial_estimate(
        "inner_product",
        hits,
        trials,
        inner_product_bound(alpha, tau, m),
        {"alpha": alpha, "m": m, "tau": tau, "seed": seed,
         "flat_bound": 2.0 ** (-0.05 * m) if tau >= 0.45 else None},
    )


def f_exponent(alpha: np.ndarray | float, s: np.ndarray | float) -> np.ndarray:
    """Per-measurement exponent (log2 e) (0.5 ln((1+s a)^2 - s^2) - (a - 0.45) s)."""
    alpha = np.asarray(alpha, dtype=float)
    s = np.asarray(s, dtype=float)
    arg = (1.0 + s * alpha) ** 2 - s ** 2
    with np.errstate(invalid="ignore", divide="ignore"):
        val = math.log2(math.e) * (0.5 * np.log(arg) - (alpha - 0.45) * s)
    return np.where(arg > 0, val, -np.inf)


def f_minimax(alpha_points: int = 401, s_points: int = 1000) -> float:
    """min over alpha of max over s of the exponent; the flat 2^{-0.05 m}
    tail bound holds when this stays >= 0.05.

    alpha runs over alpha_points evenly spaced values in [-0.999, 0.999], and
    s over s_points evenly spaced fractions in [1e-4, 1 - 1e-4] of the
    per-alpha domain (0, 1/(1-alpha)).  Each alpha's maximum is then refined
    on np.arange(lo, hi, 1e-4) between the grid neighbours of its best s.
    The exponent is evaluated on batches of alpha rows, then on concatenated
    refinement grids, at most _F_CELLS cells a call (one row or one grid
    more when it alone is longer); the value is the per-alpha scan's, bit
    for bit.
    """
    if alpha_points < 1 or s_points < 1:
        raise ValueError(f"need alpha_points >= 1 and s_points >= 1, "
                         f"got {alpha_points} and {s_points}")
    alpha = np.linspace(-0.999, 0.999, alpha_points)
    s_grid = np.linspace(1e-4, 1.0 - 1e-4, s_points)
    peak, lo, hi = np.empty((3, alpha_points))
    batch = max(1, _F_CELLS // s_points)
    for start in range(0, alpha_points, batch):
        rows = slice(start, start + batch)
        s = s_grid * (1.0 / (1.0 - alpha[rows]))[:, None]
        vals = f_exponent(alpha[rows, None], s)
        best = vals.argmax(axis=1)  # the first maximum of each row
        at = np.arange(len(s))
        peak[rows] = vals[at, best]
        lo[rows] = s[at, np.maximum(best - 1, 0)]
        hi[rows] = s[at, np.minimum(best + 1, s_points - 1)]
    # np.arange(lo, hi, 1e-4) of each row by numpy's fill rule: its length is
    # ceil((hi - lo) / 1e-4) (hi >= lo here), element 1 is lo + 1e-4 and
    # element i >= 2 is lo + i ((lo + 1e-4) - lo).  Element 1 is also
    # lo + 1 ((lo + 1e-4) - lo) whenever lo > 2.2e-5, as here (lo >= 1e-4 /
    # 1.999): the difference is exact or off by under a quarter ulp of the sum
    sizes = np.ceil((hi - lo) / 1e-4).astype(np.intp)
    step = (lo + 1e-4) - lo
    todo = np.flatnonzero(sizes)  # an empty grid keeps its coarse peak
    ends = np.cumsum(sizes[todo]).tolist()
    b = 0
    while b < len(ends):
        # the grids todo[b:e]: as many consecutive ones as fit in _F_CELLS,
        # one at least
        base = ends[b - 1] if b else 0
        e = max(b + 1, bisect.bisect_right(ends, base + _F_CELLS))
        rows, n = todo[b:e], sizes[todo[b:e]]
        first = np.cumsum(n) - n  # where each row's grid starts
        # lo + i step in place: i is exact in float, and so is each operation
        fine = np.arange(ends[e - 1] - base, dtype=float)
        fine -= np.repeat(first, n)
        fine *= np.repeat(step[rows], n)
        fine += np.repeat(lo[rows], n)
        vals = f_exponent(np.repeat(alpha[rows], n), fine)
        peak[rows] = np.maximum(peak[rows], np.maximum.reduceat(vals, first))
        b = e
    return float(peak.min())


def _projections(n: int, trials: int, rng: np.random.Generator
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(<u, v> / ||u||, ||u||) over `trials` pairs of standard normal
    n-vectors.

    The stream holds all of u, then all of v, so u is held whole; the norms,
    the v draws and the row sums take _BLOCK // n rows at a time, each row
    reduced as the whole (trials, n) arrays reduce it.  u is freed on
    return, before the caller sorts the statistic.
    """
    u = rng.standard_normal((trials, n))
    rows = max(1, _BLOCK // n)
    block = np.empty((min(rows, trials), n))
    norms = np.empty(trials)
    stat = np.empty(trials)
    for lo in range(0, trials, rows):
        ub = u[lo:lo + rows]
        cells = block[:len(ub)]
        norms[lo:lo + rows] = np.sqrt(np.multiply(ub, ub, out=cells).sum(axis=1))
        v = rng.standard_normal(out=cells)
        stat[lo:lo + rows] = np.multiply(v, ub, out=v).sum(axis=1) / norms[lo:lo + rows]
    return stat, norms


def gaussian_projection_check(n: int, trials: int, seed: int) -> TailEstimate:
    """Check that <U, V> / ||U|| is standard normal and uncorrelated with
    ||U|| for independent standard normal vectors.

    estimate is the Kolmogorov-Smirnov distance to N(0,1), reported next to
    a 0.02 point bound; p_value bounds P(KS >= estimate) under N(0,1).  The
    empirical correlation and its p-value sit in params, and the check
    passes only if neither p-value is at most REJECT_LEVEL.
    """
    if n < 2 or trials < 2:
        raise ValueError("need n >= 2 and trials >= 2")
    stat, norms = _projections(n, trials, np.random.default_rng(seed))
    # the correlation first, so its stacked copies never sit beside the CDF
    corr = float(np.corrcoef(stat, norms)[0, 1])
    # Kolmogorov-Smirnov distance to N(0,1), as scipy.stats.kstest computes it
    cdf = normal_cdf(np.sort(stat))
    ks = float(max((np.arange(1.0, trials + 1) / trials - cdf).max(),
                   (cdf - np.arange(0.0, trials) / trials).max()))
    # Dvoretzky-Kiefer-Wolfowitz with Massart's constant: P(KS >= t) <=
    # 2 exp(-2 trials t^2) under N(0,1), which gives the p-value and the
    # 95% band around the empirical KS distance
    half = math.sqrt(math.log(2.0 / 0.05) / (2.0 * trials))
    # sqrt(trials) corr is asymptotically N(0, 1) for independent samples
    corr_p = 2.0 * float(normal_cdf(-abs(corr) * math.sqrt(trials)))
    return TailEstimate(
        name="gaussian_projection",
        trials=trials,
        hits=0,
        estimate=ks,
        ci_low=max(0.0, ks - half),
        ci_high=ks + half,
        bound=0.02,
        params={
            "n": n, "seed": seed,
            "correlation": corr, "correlation_bound": 0.03,
            "correlation_p_value": corr_p,
            "mean": float(stat.mean()), "variance": float(stat.var()),
        },
        extra_ok=corr_p > REJECT_LEVEL,
        p_value=min(1.0, 2.0 * math.exp(-2.0 * trials * ks ** 2)),
    )
