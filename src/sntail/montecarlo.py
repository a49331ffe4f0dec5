"""Deterministic Monte Carlo for self-normalized tail probabilities.

Sampling is organized in fixed-size chunks.  Each reads a range of a
Philox stream (Salmon et al., SC'11) keyed by the seed and fixed by the
chunk index alone, so the draws are a pure function of (seed, chunk,
row) and never depend on how chunks are distributed over workers:
estimates are bit-identical for any worker count, and a thread pool only
changes wall time.

The statistics reduce each (m, n) chunk by walking the n rows of its
transpose with length-m buffers updated in place, not by `cumsum` along
axis 1, which pays per-row overhead at small n and allocates (m, n)
temporaries at every n.  The walk adds left to right, in `cumsum`'s
order, so each statistic is a function of the row's values alone: a
row-major chunk and its column-major copy give the same bits.

Inside the tail window most rows of a chunk cannot reach the threshold.
Hoelder's inequality on the positive part of a row with j coordinates
<= 0 bounds its `sum` statistic by (n - j)^(1 - 1/beta) and both max
variants by sqrt(n - j), for every prefix k.  So a row with at least J
such coordinates cannot hit, J being the fewest whose bound, widened by
a 1e-9 relative slack for rounding, is below the threshold (`_sign_cut`).
For models whose law is symmetric about 0 with draws negative exactly
below the median (`DensityModel.signs_split_at_median`), a chunk is drawn
sign first: the signs of all its coordinates come first, the rows with
at least J negative signs are dropped, and only the kept rows get
magnitudes, x = +-F^-1(1/2 + w/2) with w uniform on [0, 1).  A dropped
row cannot hit, so the hits are still exactly Bin(trials, p), and the
inverse CDF and the statistic run on the kept rows alone, where that
keeps at most 3/4 of the rows in expectation (`_row_cut`).  Against the
full draws (`sum`, 1 worker, medians of 10 alternating pairs, the filter
forced above 3/4) it took at n = 9, 2e6 trials, kept 0.746, 0.910 and
0.980: 0.39 vs 0.63, 0.59 vs 0.64, 0.59 vs 0.57 s (faster in 10, 9, 4
pairs); at n = 64, 3e5 trials, kept 0.734 and 0.970: 0.51 vs 0.57, 0.68
vs 0.69 s (10 and 4 pairs).

At cut 1 every kept coordinate is positive and no prefix k < n can reach
the threshold, so all three statistics hit where S(n) / ||x|| does.  There
a magnitude's top 12 bits give its cell of [1/2, 1), the model's draws at
the cell edges (`DensityModel.cell_edges`) bound S(n) and the sum of x^p
(p = beta for `sum`, else 2) from both sides, and a row whose bounds clear
the threshold by `_HOLDER_SLACK` is a sure hit or miss (`_screen`).  Only
the thin band between gets its inverse CDF and statistic, so the hits and
`spec_hash` are unchanged bit for bit.  Runs expecting fewer kept
magnitudes, n trials 2^-n, than the table's 2^12 + 1 edges skip it.  At
n = 3, eps = 0.1 the band holds 0.65% of the kept rows and 22.7% are sure
hits; 1e7 trials took 0.050 s screened, 0.117 s sign first alone and
1.27 s on the full draws (1 worker, faster in 10 of 10 pairs each).

A chunk's range of words has one of two layouts:

- stream 1, uniforms (every other run): chunk c reads words from
  c * CHUNK_TRIALS * n on, one per coordinate in row-major order, as the
  double (word >> 11) * 2^-53 (`Generator.random`).
- stream 3, sign first: chunk c owns the 2 * CHUNK_TRIALS * n words from
  c * 2 * CHUNK_TRIALS * n on.  The first n * CHUNK_TRIALS / 64 of them
  are n sign planes: coordinate j of row 64 q + k is negative when bit k
  of word q of plane j is set, read little-endian on every host (a short
  last chunk of m rows ignores rows m and up).  The k kept rows'
  magnitudes follow plane by plane, coordinate j of kept row r in word
  n * CHUNK_TRIALS / 64 + j k + r, as u = 1/2 + (word >> 12) * 2^-53: w on
  a 52-bit grid, so u is exact on the doubles of [1/2, 1).  A chunk reads
  at most CHUNK_TRIALS * n * (1 + 1/64) words, so no two chunks share one.

`spec_hash` records the stream only for stream 3, so a stream 1 run keeps
the digest it always had.  (Stream 2 held the signs row-major.)
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .density import MAGNITUDE_CELLS, DensityModel, DiscreteModel
from .oracles import regularized_incomplete_beta

__all__ = [
    "CHUNK_TRIALS",
    "MIN_EXPECTED_HITS",
    "MIN_TRIALS",
    "STATISTICS",
    "StatisticSpec",
    "SamplerSpec",
    "MCEstimate",
    "MaxSumComparison",
    "wilson_interval",
    "statistic",
    "statistic_batch",
    "sample_batch",
    "estimate_tail",
    "compare_max_vs_sum",
    "spec_hash",
]

CHUNK_TRIALS = 65536
# Below this many expected hits a tail estimate resolves nothing: `mc`
# warns, and `MCEstimate.judge` reads the estimate as unresolved.
MIN_EXPECTED_HITS = 50
# Fewest trials an estimate accepts.
MIN_TRIALS = 1000
# Two-sided 95%: norm.isf(0.025) frozen so the CI never drifts with scipy.
_WILSON_Z = 1.959963984540054
# Two-sided tail of a normal deviate beyond 5 sigma, 5.7e-7: the level of
# `MCEstimate.judge`, by z score or by exact binomial tail.
_FIVE_SIGMA_LEVEL = math.erfc(5.0 / math.sqrt(2.0))
# Rows per block when a chunk is transposed for the column walk: a block
# of 1024 rows of n doubles stays in cache.
_TRANSPOSE_ROWS = 1024
_TINY = np.finfo(float).tiny
# Relative slack on the Hoelder bounds of the row filter: a computed
# statistic may round a few ulps above its exact bound.
_HOLDER_SLACK = 1e-9
# Band rows a screening worker holds before it judges them.
_BAND_ROWS = CHUNK_TRIALS
# The sign-first stream's version, recorded by `spec_hash`.
_SIGN_FIRST_STREAM = 3
# The bits of the double 1/2: OR-ed with a 52-bit integer w they give
# 1/2 + w * 2^-53, exactly.
_HALF_BITS = np.uint64(0x3FE0000000000000)
# The bits of a magnitude's u = 1/2 + w * 2^-53, shifted right by
# _CELL_SHIFT = 40, are its cell w >> 40 plus _CELL_BASE, from 1/2's bits.
_CELL_SHIFT = 52 - (MAGNITUDE_CELLS.bit_length() - 1)
_CELL_BASE = int(_HALF_BITS) >> _CELL_SHIFT

STATISTICS = ("sum", "max-over-Zn", "max-over-Zk")


@dataclass(frozen=True)
class StatisticSpec:
    """Which functional of the sample to threshold.

    sum:          S(n) / (sum |x_i|^beta)^(1/beta)
    max-over-Zn:  max_{k=2..n} S(k) / Z(n)
    max-over-Zk:  max_{k=2..n} S(k) / Z(k)

    The max variants always normalize by the Euclidean norm; beta only
    enters the sum variant's denominator.
    """

    beta: float = 2.0
    variant: str = "sum"

    def __post_init__(self) -> None:
        if not self.beta > 1.0:
            raise ValueError(f"beta must exceed 1, got {self.beta}")
        if self.variant not in STATISTICS:
            raise ValueError(
                f"unknown statistic variant {self.variant!r}; choose from {STATISTICS}"
            )


@dataclass(frozen=True)
class SamplerSpec:
    """A reproducible sampling plan.

    `model` carries the dimension n.  Results are bit-identical for fixed
    (seed, trials) regardless of workers: substreams are keyed by absolute
    trial position, never by worker identity.
    """

    model: DensityModel | DiscreteModel
    seed: int
    trials: int
    workers: int = 1

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True)
class MCEstimate:
    """Tail estimate with a Wilson score interval."""

    hits: int
    trials: int
    p_hat: float
    ci_low: float
    ci_high: float
    seed: int
    threshold: float
    variant: str
    beta: float
    spec_hash: str
    warnings: tuple[str, ...] = ()

    def to_payload(self) -> dict[str, object]:
        return {
            "hits": self.hits,
            "trials": self.trials,
            "p_hat": self.p_hat,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "seed": self.seed,
            "threshold": self.threshold,
            "statistic": self.variant,
            "beta": self.beta,
            "spec_hash": self.spec_hash,
            "warnings": list(self.warnings),
        }

    def covers(self, value: float) -> bool:
        return self.ci_low <= value <= self.ci_high

    def judge(self, p: float) -> tuple[bool, bool, str]:
        """(within, resolved, gate text) of the hits against an exact tail p.

        A 95% interval misses on 5% of seeds by design, so the hits are
        judged by a 5 sigma gate: |z| <= 5 where at least MIN_EXPECTED_HITS
        hits are expected, and below that, where the normal approximation
        behind z fails, the exact two-sided binomial tail at the same level.
        With fewer expected hits the estimate cannot tell p from a
        neighbour, so it resolves nothing.  At p = 0 any hit is outside.
        """
        sigma = math.sqrt(max(p * (1.0 - p), 1e-300) / self.trials)
        z_score = (self.p_hat - p) / sigma
        if p * self.trials >= MIN_EXPECTED_HITS:
            return abs(z_score) <= 5.0, True, f"z = {z_score:+.3f} against the 5 sigma gate"
        p_value = _binomial_p_value(self.hits, self.trials, p)
        gate = (
            f"z = {z_score:+.3f}; exact binomial p = {p_value:.3g} against "
            f"the 5 sigma level {_FIVE_SIGMA_LEVEL:.3g}"
        )
        return p_value >= _FIVE_SIGMA_LEVEL, False, gate


def _binomial_p_value(hits: int, trials: int, p: float) -> float:
    """Two-sided exact p-value of `hits` in `trials` at rate p: twice the
    binomial tail beyond `hits` on its side of the mean, an incomplete beta."""
    if hits >= p * trials:
        tail = regularized_incomplete_beta(hits, trials - hits + 1, p) if hits else 1.0
    else:
        tail = regularized_incomplete_beta(trials - hits, hits + 1, 1.0 - p)
    return min(1.0, 2.0 * tail)


def wilson_interval(hits: int, trials: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Stays inside [0, 1] and behaves sensibly at hits = 0, which rare-tail
    runs routinely produce.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= hits <= trials:
        raise ValueError(f"hits must lie in [0, {trials}], got {hits}")
    p = hits / trials
    z = _WILSON_Z
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    spread = z * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    # at the boundary counts the score interval closes on 0 resp. 1 exactly,
    # but center - spread leaves a rounding residue; pin the exact endpoint
    lo = 0.0 if hits == 0 else max(center - spread, 0.0)
    hi = 1.0 if hits == trials else min(center + spread, 1.0)
    return lo, hi


def _columns(x: np.ndarray) -> np.ndarray:
    """`x.T` as a C-contiguous (n, m) array, so each walk step reads one
    contiguous row: a view of a column-major (sign-first) chunk.

    Others are copied in blocks of rows that stay in cache: one strided
    copy of a wide chunk scatters every source row over n far-apart rows,
    and at n = 64 is 3x slower than the blocked copy.
    """
    if x.T.flags.c_contiguous:
        return x.T
    cols = np.empty(x.shape[::-1])
    for start in range(0, x.shape[0], _TRANSPOSE_ROWS):
        stop = start + _TRANSPOSE_ROWS
        cols[:, start:stop] = x[start:stop].T
    return cols


def _column_walk(
    x: np.ndarray, want_top: bool, want_ratio: bool, power: float
) -> tuple[np.ndarray, ...]:
    """S(n), max_{k=2..n} S(k), max_{k=2..n} S(k)/Z(k), the sum of
    |x|^power (Z(n)^2 at power 2, which `want_ratio` needs), and whether
    Z(2)^2 is below the smallest normal double, per row.

    One walk over the columns keeps the sums and maxima in length-m
    buffers updated in place, adding in `np.cumsum`'s order, so every
    output is a function of the row's values alone, whatever the layout
    of `x`, and the maxima are the bits of the row-wise cumsum form.  A
    prefix whose Z(k)^2 vanishes or underflows contributes -inf; Z(k)^2
    never decreases in k, so the rows with such a prefix are the ones
    flagged at k = 2.  What is not asked for is None.
    """
    cols = _columns(x)
    total = cols[0].copy()
    square = power == 2.0
    power_sum = cols[0] * cols[0] if square else np.abs(cols[0]) ** power
    top = np.full_like(total, -np.inf) if want_top else None
    best = np.full_like(total, -np.inf) if want_ratio else None
    scratch = np.empty_like(total)
    low = None
    for col in cols[1:]:
        total += col
        if want_top:
            np.maximum(top, total, out=top)
        if square:
            np.multiply(col, col, out=scratch)
            power_sum += scratch
        else:
            power_sum += np.abs(col) ** power
        if want_ratio:
            np.sqrt(power_sum, out=scratch)
            np.divide(total, scratch, out=scratch)
            tiny = power_sum < _TINY
            np.copyto(scratch, -np.inf, where=tiny)
            np.maximum(best, scratch, out=best)
            if low is None:
                low = tiny
    return total, top, best, power_sum, low


def _underflowed_prefix_max(rows: np.ndarray) -> np.ndarray:
    """max S(k)/Z(k) over the prefixes k >= 2 whose Z(k)^2 underflows;
    -inf where every such prefix is zero or there is none.

    Every entry of such a prefix is below sqrt(tiny) ~ 1.5e-154, so the
    exact power of two 2^600 makes its squares normal doubles (5e-324
    becomes 2e-143) without rounding any entry.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        y = rows * 2.0**600
        sq = np.cumsum(y * y, axis=1)[:, 1:]
        ratio = np.cumsum(y, axis=1)[:, 1:] / np.sqrt(sq)
        use = (np.cumsum(rows * rows, axis=1)[:, 1:] < _TINY) & (sq > 0.0)
    return np.max(np.where(use, ratio, -np.inf), axis=1)


def statistic_batch(x: np.ndarray, spec: StatisticSpec = StatisticSpec()) -> np.ndarray:
    """Self-normalized statistics for a (trials, n) batch of draws.

    Rejects all-zero rows: the statistic is undefined there (the models of
    interest put zero mass on the zero vector).  A nonzero row whose norm
    underflows or overflows is divided by its max-abs entry first, so
    1e-170 * ones and 1e200 * ones give sqrt(n) like any other multiple of
    ones.

    Every variant walks the n columns once (see _column_walk), so each is
    bit-identical to the row-wise cumsum form at every n and for either
    layout of `x`; an all-zero prefix contributes -inf, and a nonzero
    prefix whose squares underflow is multiplied by 2^600 first, so
    [1e-170, 1e-170, 1] reads sqrt(2), from k = 2.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("expected a 2-D batch of draws")
    if x.shape[1] < 2:
        raise ValueError("samples must have length >= 2")
    variant = spec.variant
    power = spec.beta if variant == "sum" else 2.0
    # Below `floor`, the power sum behind `norm` (Z(n)^2 or the sum of
    # |x|^beta) is no normal double: its terms have underflowed.  Above the
    # largest double they have overflowed, and `norm` is inf.
    under = None
    with np.errstate(over="ignore"):
        with np.errstate(divide="ignore", invalid="ignore"):
            total, top, best, norm, low = _column_walk(
                x, variant == "max-over-Zn", variant == "max-over-Zk", power
            )
        floor = _TINY
        if variant == "max-over-Zk":
            if low.any():
                under = np.full(low.shape, -np.inf)
                under[low] = _underflowed_prefix_max(x[low])
                np.maximum(best, under, out=best)
        else:
            norm = np.sqrt(norm) if power == 2.0 else norm ** (1.0 / power)
            floor = _TINY ** (1.0 / power)
    # The statistics are scale-invariant: rows whose norm underflows (an
    # all-zero row among them) or overflows are redone divided by their
    # max-abs entry.
    rescale = (norm < floor) | np.isinf(norm)
    if rescale.any():
        rows = x[rescale]
        scale = np.max(np.abs(rows), axis=1)
        if not scale.all():
            raise ValueError("statistic undefined on the zero vector")
        redone = statistic_batch(rows / scale[:, None], spec)
        norm[rescale] = 1.0  # placeholders, so the divisions below stay finite
    if variant == "sum":
        with np.errstate(over="ignore"):  # overflowing rows are redone
            values = np.divide(total, norm, out=total)
    elif variant == "max-over-Zn":
        values = np.divide(top, norm, out=top)
    else:
        values = best
    if rescale.any():
        if under is not None:
            # Dividing by the max-abs entry flushes entries ~308 orders of
            # magnitude below it to 0, and with them the prefixes only the
            # 2^600 path resolved: keep the larger value.
            redone = np.maximum(redone, under[rescale])
        values[rescale] = redone
    return values


def statistic(x: np.ndarray, spec: StatisticSpec = StatisticSpec()) -> float:
    """Statistic of a single length-n sample."""
    return float(statistic_batch(np.asarray(x, dtype=float)[None, :], spec)[0])


def spec_hash(sampler: SamplerSpec, stat: StatisticSpec, threshold: float) -> str:
    """Stable digest of everything the estimate is a function of.

    Recorded on every MCEstimate so a run can be replayed bit-for-bit from
    its serialized form.  User-supplied density callables are not
    serializable; they hash by kind and dimension only.  A run drawn from
    stream 3, sign first (see the module docstring), which `_row_cut` picks
    from these same arguments, also records `stream = 3`; a run on the
    uniform stream 1 hashes as it always did.
    """
    model = sampler.model
    desc: dict[str, object] = {"model": model.kind}
    for field in ("mu", "sigma", "nu", "shift"):
        value = getattr(model, field, None)
        if value is not None:
            desc[field] = repr(float(value))
    if model.kind == "gaussian":
        desc["mean"] = [repr(float(v)) for v in model.mean]
        desc["chol"] = [repr(float(v)) for v in model.chol.ravel()]
    desc.update(
        n=model.n,
        seed=sampler.seed,
        trials=sampler.trials,
        beta=repr(float(stat.beta)),
        variant=stat.variant,
        threshold=repr(float(threshold)),
    )
    if _row_cut(sampler, stat, threshold) is not None:
        desc["stream"] = _SIGN_FIRST_STREAM
    blob = json.dumps(desc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _chunk_uniforms(
    seed: int, chunk_index: int, m: int, n: int, cut: int | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """The uniforms of one chunk and, sign first, the signs of its rows.

    Without a `cut`, the (m, n) uniforms of stream 1: Philox opened at the
    absolute word offset chunk_index * CHUNK_TRIALS * n (advance() moves
    the counter in 4-word blocks, and the offset is a multiple of 4), one
    word per double, so trial i of the run is doubles [i * n, (i + 1) * n)
    at any chunking; the signs are None.

    With a `cut`, stream 3 (see the module docstring): for the k rows with
    fewer than `cut` sign bits set, the column-major (k, n) uniforms u in
    [1/2, 1) of their magnitudes and signs, True where negative; at cut 1,
    k is m less the popcount of the planes' OR, and the signs are None.
    """
    bitgen = np.random.Philox(key=seed)
    if cut is None:
        bitgen.advance(chunk_index * CHUNK_TRIALS * n // 4)
        return np.random.Generator(bitgen).random((m, n)), None
    bitgen.advance(chunk_index * 2 * CHUNK_TRIALS * n // 4)
    planes = bitgen.random_raw(n * CHUNK_TRIALS // 64).reshape(n, -1)
    if cut == 1:
        negative, k = None, m - _rows_with_a_sign(planes, m)
    else:
        negative = _kept_signs(planes, m, cut).T
        k = len(negative)
    words = bitgen.random_raw(n * k).reshape(n, k)
    words >>= np.uint64(12)
    words |= _HALF_BITS
    return words.view(np.float64).T, negative


def _rows_with_a_sign(planes: np.ndarray, m: int) -> int:
    """How many of the first m rows have a bit set in some plane."""
    either = np.bitwise_or.reduce(planes[:, : -(-m // 64)], axis=0)
    either[m // 64 :] <<= np.uint64(-m % 64)  # drop the bits of rows m and up
    return int(np.bitwise_count(either).sum())


def _kept_signs(planes: np.ndarray, m: int, cut: int) -> np.ndarray:
    """The (n, k) sign bits of the first m rows with fewer than `cut` set, in
    row order; bit k of word q of a plane is row 64 q + k on any host."""
    octets = planes.astype("<u8", copy=False).view(np.uint8)
    flags = np.unpackbits(octets, axis=1, count=m, bitorder="little")
    counts = np.add.reduce(flags, axis=0, dtype=np.min_scalar_type(len(planes)))
    return np.compress(counts < cut, flags, axis=1).view(bool)


def _cap_power(stat: StatisticSpec) -> float:
    """p such that n^p is the statistic's largest value, at x = ones: 1 - 1/beta
    for `sum`, 1/2 for the max variants, which are Euclidean at every beta."""
    return 1.0 - 1.0 / stat.beta if stat.variant == "sum" else 0.5


def _sign_cut(n: int, stat: StatisticSpec, threshold: float) -> int:
    """J: the fewest coordinates <= 0 that keep a row's statistic at or
    below `threshold`; n + 1 when no count does (threshold <= 0).

    A row with j coordinates <= 0 has at most n - j positive ones, so by
    Hoelder its `sum` statistic is at most (n - j)^(1 - 1/beta) and its
    max statistics at most sqrt(n - j).  J is the smallest j whose bound,
    widened by `_HOLDER_SLACK`, is below the threshold.
    """
    power = _cap_power(stat)
    for j in range(n + 1):
        if (n - j) ** power * (1.0 + _HOLDER_SLACK) < threshold:
            return j
    return n + 1


def _row_cut(sampler: SamplerSpec, stat: StatisticSpec, threshold: float) -> int | None:
    """The J of `_sign_cut` when the run is drawn sign first, else None.

    Only models whose draws are negative exactly where u < 1/2 qualify
    (`DensityModel.signs_split_at_median`), so a row is kept, having fewer
    than J negative coordinates, with probability P(Bin(n, 1/2) < J), taken
    exactly.  The filter runs when that is at most 3/4.
    """
    if not sampler.model.signs_split_at_median():
        return None
    n = sampler.model.n
    cut = _sign_cut(n, stat, threshold)
    kept = sum(math.comb(n, i) for i in range(cut))
    return cut if 4 * kept <= 3 * 2**n else None


def _chunk_draws(
    sampler: SamplerSpec, chunk_index: int, m: int, cut: int | None = None
) -> np.ndarray:
    """Draws for one chunk, a pure function of (model, seed, chunk_index).

    With a `cut` from `_row_cut`, the chunk is drawn sign first and only
    the rows with fewer than `cut` negative coordinates are returned, in
    chunk order and column-major: the model maps each magnitude's u in
    [1/2, 1) to F^-1(u) >= 0, and the sign bit of the double is then set
    where the coordinate is negative, which negates it exactly.
    """
    u, negative = _chunk_uniforms(sampler.seed, chunk_index, m, sampler.model.n, cut)
    x = sampler.model.draw_from_uniforms(u)
    if negative is not None:
        # the model never writes u, so its words take the sign mask
        mask = np.left_shift(negative, 63, out=u.view(np.uint64), dtype=np.uint64)
        np.bitwise_or(x.view(np.uint64), mask, out=x.view(np.uint64))
    return x


def _chunk_sizes(trials: int) -> list[int]:
    n_chunks = (trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS
    return [
        min(CHUNK_TRIALS, trials - c * CHUNK_TRIALS) for c in range(n_chunks)
    ]


def sample_batch(sampler: SamplerSpec) -> Iterator[np.ndarray]:
    """Yield the full (m, n) draws of stream 1 in chunk order, whatever
    stream an estimate of the same sampler reads."""
    for c, m in enumerate(_chunk_sizes(sampler.trials)):
        yield _chunk_draws(sampler, c, m)


def _pool_map(workers: int, fn, items) -> list:
    """[fn(item) for item in items], on a pool of `workers` threads."""
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _run_chunks(sampler: SamplerSpec, per_chunk, cut: int | None = None) -> list:
    """Map per_chunk(draws) over all chunks, results in chunk order.

    `cut` drops the rows that cannot hit (see _chunk_draws), so per_chunk
    may only count hits.
    """
    sizes = _chunk_sizes(sampler.trials)
    return _pool_map(
        sampler.workers, lambda c: per_chunk(_chunk_draws(sampler, c, sizes[c], cut)),
        range(len(sizes)),
    )


def _screen(
    u: np.ndarray, bounds: np.ndarray, power: float, threshold: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(sure hit, band) masks of the kept rows u of a cut-1 chunk.  The rows
    of `bounds` at the coordinates' cells bound S(n) and the sum P of
    x^power from both sides: a row hits surely where S(n)^power / P >
    (threshold (1 + slack))^power, misses surely where it is <=
    (threshold (1 - slack))^power, and is in the band otherwise."""
    cells = u.T.view(np.int64) >> _CELL_SHIFT
    cells -= _CELL_BASE
    total = bounds.take(cells[0], axis=0)
    for col in cells[1:]:
        total += bounds.take(col, axis=0)
    s_lo, s_hi, p_lo, p_hi = total.T
    hit = s_lo**power > (threshold * (1.0 + _HOLDER_SLACK)) ** power * p_hi
    band = s_hi**power > (threshold * (1.0 - _HOLDER_SLACK)) ** power * p_lo
    band &= ~hit
    return hit, band


def _cell_bounds(model: DensityModel, power: float) -> np.ndarray | None:
    """(x_lo, x_hi, x_lo^power, x_hi^power) per cell, or None where a
    product of `_screen` could overflow or go subnormal, losing its
    relative accuracy: a large beta, from 40 on for student-t(2.01)."""
    edges = model.cell_edges
    with np.errstate(over="ignore", under="ignore"):
        raised = edges**power
        top = model.n * (model.n * edges[-1]) ** power
    if not (raised[1] >= _TINY and top < np.inf):
        return None
    return np.stack((edges[:-1], edges[1:], raised[:-1], raised[1:]), axis=1)


def _screened_hits(sampler: SamplerSpec, stat: StatisticSpec, threshold: float) -> int | None:
    """Hits of a cut-1 run by the cell screen, or None where it is skipped.
    Worker w screens chunks w, w + W, ... and judges its band rows in one
    call at the end, or whenever `_BAND_ROWS` are held."""
    model, n = sampler.model, sampler.model.n
    # the table costs MAGNITUDE_CELLS + 1 inverse CDFs: as many kept
    # magnitudes, n trials 2^-n, must be expected
    if n * sampler.trials < (MAGNITUDE_CELLS + 1) << n:
        return None
    power = stat.beta if stat.variant == "sum" else 2.0
    bounds = _cell_bounds(model, power)
    if bounds is None:
        return None
    sizes = _chunk_sizes(sampler.trials)
    workers = min(sampler.workers, len(sizes))

    def judge(band: list[np.ndarray]) -> int:
        if not any(rows.size for rows in band):
            return 0
        rows = np.concatenate(band, axis=1).T
        values = statistic_batch(model.draw_from_uniforms(rows), stat)
        return int(np.count_nonzero(values > threshold))

    def walk(first: int) -> int:
        hits, band, held = 0, [], 0
        for c in range(first, len(sizes), workers):
            u = _chunk_uniforms(sampler.seed, c, sizes[c], n, 1)[0]
            hit, in_band = _screen(u, bounds, power, threshold)
            hits += int(np.count_nonzero(hit))
            band.append(u.T.compress(in_band, axis=1))
            held += band[-1].shape[1]
            if held >= _BAND_ROWS:
                hits, band, held = hits + judge(band), [], 0
        return hits + judge(band)

    return sum(_pool_map(workers, walk, range(workers)))


def estimate_tail(sampler: SamplerSpec, stat: StatisticSpec, epsilon: float) -> MCEstimate:
    """Monte Carlo estimate of P(statistic > threshold), strict exceedance.

    The threshold is cap - epsilon (the tail parameterization used
    throughout), the cap being the statistic's largest value: n^(1-1/beta)
    for `sum` and sqrt(n) for the max variants, which ignore beta.
    The result is a pure function of (sampler.model, seed, trials, stat,
    epsilon); workers only distribute chunks.

    For iid-normal with mu = 0 and iid-student-t, rows with too many
    negative coordinates to hit get no magnitudes where that drops a
    quarter of the rows or more, and at cut 1 most kept rows are judged
    by cells without their draws: see the module docstring.
    """
    n = sampler.model.n
    cutoff = float(n) ** _cap_power(stat)
    if not 0.0 < epsilon < cutoff:
        raise ValueError(f"epsilon must lie in (0, {cutoff:.6g}), got {epsilon}")
    threshold = cutoff - epsilon
    if sampler.trials < MIN_TRIALS:
        raise ValueError(f"need at least {MIN_TRIALS} trials, got {sampler.trials}")

    def per_chunk(draws: np.ndarray) -> int:
        return int(np.count_nonzero(statistic_batch(draws, stat) > threshold))

    # Every degenerate row has its first coordinate at 0, so at J = 1 no
    # row can hit, and nothing is drawn.
    degenerate = sampler.model.kind == "degenerate-first-coordinate"
    if degenerate and _sign_cut(n, stat, threshold) <= 1:
        return _estimate(sampler, stat, threshold, 0)
    cut = _row_cut(sampler, stat, threshold)
    hits = _screened_hits(sampler, stat, threshold) if cut == 1 else None
    if hits is None:
        hits = int(sum(_run_chunks(sampler, per_chunk, cut)))
    return _estimate(sampler, stat, threshold, hits)


def _estimate(
    sampler: SamplerSpec,
    stat: StatisticSpec,
    threshold: float,
    hits: int,
    warnings: tuple[str, ...] = (),
) -> MCEstimate:
    low, high = wilson_interval(hits, sampler.trials)
    return MCEstimate(
        hits=hits,
        trials=sampler.trials,
        p_hat=hits / sampler.trials,
        ci_low=low,
        ci_high=high,
        seed=sampler.seed,
        threshold=float(threshold),
        variant=stat.variant,
        beta=stat.beta,
        spec_hash=spec_hash(sampler, stat, threshold),
        warnings=warnings,
    )


@dataclass(frozen=True)
class MaxSumComparison:
    """Coupled estimates of the running-max and endpoint tails.

    All three statistics are evaluated on the same draws (common random
    numbers).  The endpoint event implies the max events pathwise, so
    disagreement is exactly "max exceeded, endpoint did not".
    """

    max_zn_estimate: MCEstimate
    max_zk_estimate: MCEstimate
    sum_estimate: MCEstimate
    max_without_sum: int
    either: int
    trials: int
    ratio: float
    ratio_low: float
    ratio_high: float
    warnings: tuple[str, ...] = ()

    @property
    def coincidence_rate(self) -> float:
        """Among trials where either event occurred, fraction where both did."""
        if self.either == 0:
            return 1.0
        return 1.0 - self.max_without_sum / self.either

    @property
    def all_coincide(self) -> bool:
        return self.max_without_sum == 0

    def ratio_covers(self, value: float) -> bool:
        return self.ratio_low <= value <= self.ratio_high


def compare_max_vs_sum(sampler: SamplerSpec, epsilon: float) -> MaxSumComparison:
    """Estimate the max-statistic and endpoint tails on shared samples.

    Threshold is sqrt(n) - epsilon with Euclidean normalization (the max
    comparison lives in the beta = 2 world).  The supported window for
    the max/endpoint equivalence is 0 < epsilon < 1/(2 sqrt(n-1));
    outside it the comparison still runs but carries a warning.  The
    ratio interval [R_lo/Q_hi, R_hi/Q_lo] is the conservative quotient of
    the two Wilson intervals; it ignores the coupling, so it always
    contains the tighter paired interval.
    """
    n = sampler.model.n
    if not 0.0 < epsilon < math.sqrt(n):
        raise ValueError(f"epsilon must lie in (0, sqrt(n)), got {epsilon}")
    if sampler.trials < MIN_TRIALS:
        raise ValueError(f"need at least {MIN_TRIALS} trials, got {sampler.trials}")
    threshold = math.sqrt(n) - epsilon
    window_hi = 0.5 / math.sqrt(n - 1)
    warnings: tuple[str, ...] = ()
    if epsilon >= window_hi:
        warnings = (
            f"epsilon {epsilon:g} is outside the max-comparison window "
            f"(0, {window_hi:.6g}); the estimates are still exact but the "
            "equivalence of the two tails is not guaranteed",
        )

    stats = [StatisticSpec(2.0, v) for v in STATISTICS]

    def per_chunk(draws: np.ndarray) -> tuple[int, ...]:
        hit_sum, hit_zn, hit_zk = (statistic_batch(draws, s) > threshold for s in stats)
        return tuple(
            int(np.count_nonzero(mask))
            for mask in (hit_sum, hit_zn, hit_zk, hit_zn & ~hit_sum, hit_zn | hit_sum)
        )

    # all three statistics are Euclidean: one sqrt(n - j) bound serves them
    cut = _row_cut(sampler, StatisticSpec(2.0, "max-over-Zn"), threshold)
    counts = [sum(c) for c in zip(*_run_chunks(sampler, per_chunk, cut))]
    hits_sum, hits_zn, _, only_max, either = counts
    sum_est, zn_est, zk_est = (
        _estimate(sampler, s, threshold, hits, warnings) for s, hits in zip(stats, counts[:3])
    )
    ratio = hits_zn / hits_sum if hits_sum > 0 else math.inf
    ratio_low = zn_est.ci_low / sum_est.ci_high if sum_est.ci_high > 0.0 else math.inf
    ratio_high = zn_est.ci_high / sum_est.ci_low if sum_est.ci_low > 0.0 else math.inf
    return MaxSumComparison(
        max_zn_estimate=zn_est,
        max_zk_estimate=zk_est,
        sum_estimate=sum_est,
        max_without_sum=only_max,
        either=either,
        trials=sampler.trials,
        ratio=ratio,
        ratio_low=ratio_low,
        ratio_high=ratio_high,
        warnings=warnings,
    )
