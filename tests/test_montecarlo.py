"""Sampling determinism, statistic properties, and interval behavior."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.special import ndtri, stdtrit

import sntail.montecarlo as montecarlo
from sntail.density import MAGNITUDE_CELLS, UNIFORM_FLOOR, DensityModel, DiscreteModel
from sntail.montecarlo import (
    CHUNK_TRIALS,
    STATISTICS,
    MCEstimate,
    SamplerSpec,
    StatisticSpec,
    compare_max_vs_sum,
    estimate_tail,
    sample_batch,
    spec_hash,
    statistic,
    statistic_batch,
    wilson_interval,
)
from sntail.montecarlo import (
    _chunk_draws,
    _chunk_sizes,
    _cap_power,
    _cell_bounds,
    _chunk_uniforms,
    _estimate,
    _kept_signs,
    _row_cut,
    _rows_with_a_sign,
    _screen,
    _sign_cut,
)
from sntail.oracles import degenerate_component_check, sphere_tail_exact


def test_statistic_worked_examples():
    assert statistic(np.array([3.0, 4.0])) == pytest.approx(1.4, rel=1e-15)
    for n in (2, 3, 5):
        assert statistic(np.ones(n)) == pytest.approx(math.sqrt(n), rel=1e-15)
    got = statistic(np.array([1.0, 1.0]), StatisticSpec(3.0, "sum"))
    assert got == pytest.approx(2.0 ** (2.0 / 3.0), rel=1e-15)
    got = statistic(np.array([1.0, 1.0, 1.0]), StatisticSpec(2.0, "max-over-Zn"))
    assert got == pytest.approx(math.sqrt(3.0), rel=1e-15)


def test_statistic_rejects_zero_vector():
    with pytest.raises(ValueError, match="zero vector"):
        statistic(np.zeros(3))
    x = np.ones((4, 3))
    x[2] = 0.0
    with pytest.raises(ValueError, match="zero vector"):
        statistic_batch(x)


def _rowwise_statistic_batch(x, stat):
    """The row-wise cumsum form of statistic_batch, frozen as the reference.

    Whole-row sums are the last entry of a cumsum: left to right on either
    layout, where `np.sum` adds pairwise along a contiguous axis.
    """
    sq = x * x
    if not np.all(np.any(x != 0.0, axis=1)):
        raise ValueError("statistic undefined on the zero vector")

    def row_sum(a):
        return np.cumsum(a, axis=1)[:, -1]

    if stat.variant == "sum":
        num = row_sum(x)
        if stat.beta == 2.0:
            den = np.sqrt(row_sum(sq))
        else:
            den = row_sum(np.abs(x) ** stat.beta) ** (1.0 / stat.beta)
        return num / den
    if stat.variant == "max-over-Zn":
        num = np.max(np.cumsum(x, axis=1)[:, 1:], axis=1)
        return num / np.sqrt(row_sum(sq))
    partial = np.cumsum(x, axis=1)[:, 1:]
    norms = np.sqrt(np.cumsum(sq, axis=1))[:, 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(norms > 0.0, partial / norms, -np.inf)
    return np.max(ratios, axis=1)


_REFERENCE_SPECS = (
    StatisticSpec(2.0, "sum"),
    StatisticSpec(3.0, "sum"),
    StatisticSpec(2.0, "max-over-Zn"),
    StatisticSpec(3.0, "max-over-Zn"),
    StatisticSpec(2.0, "max-over-Zk"),
)


@pytest.mark.parametrize("n", [2, 3, 4, 8, 9, 17, 64])
def test_statistic_batch_matches_rowwise_reference(n):
    rng = np.random.default_rng(1000 + n)
    x = rng.standard_normal((3000, n))
    # leading zeros make the first prefix norms vanish (the -inf path of
    # max-over-Zk); squares of 1e-170 underflow, so in row n the prefix
    # norms vanish under partial sums that do not: the reference reads
    # those prefixes as -inf, and max-over-Zk rescales them instead.  Row
    # n + 2 underflows whole: the reference is +-inf there, and
    # statistic_batch rescales that row only, so it reads like a row of
    # ones and every other row keeps its bits.
    for j in range(1, n):
        x[j, :j] = 0.0
    x[n, : n - 1] = 1e-170
    x[n, n - 1] = 2.0
    x[n + 1, 1:] = 0.0
    x[n + 2] = 1e-170
    rows = np.arange(x.shape[0])
    for spec in _REFERENCE_SPECS:
        with np.errstate(divide="ignore"):
            expect = _rowwise_statistic_batch(x, spec)
        rest = (rows != n + 2) & ((rows != n) | (spec.variant != "max-over-Zk"))
        # a column-major copy, the layout of a sign-first chunk, keeps the bits
        for batch in (x, np.asfortranarray(x)):
            got = statistic_batch(batch, spec)
            assert np.array_equal(got[rest], expect[rest]), spec
            assert got[n + 2] == statistic_batch(np.ones((1, n)), spec)[0], spec
    # the prefix of n - 1 entries 1e-170 is the maximum, sqrt(n - 1)
    zk = statistic_batch(x, StatisticSpec(variant="max-over-Zk"))
    assert zk[n] == pytest.approx(math.sqrt(n - 1), rel=1e-15)
    x[-1] = 0.0
    for spec in _REFERENCE_SPECS:
        with pytest.raises(ValueError, match="zero vector"):
            statistic_batch(x, spec)


def test_underflowing_rows_read_like_their_rescaled_selves():
    # the squares of 1e-170 underflow to zero, those of 1e-160 to
    # subnormals with a few bits left, and those of 1e200 (cubes of 1e103)
    # overflow; the statistic is scale-invariant, so c * ones reads sqrt(n)
    # for every c > 0, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (2, 3, 8):
            for scale in (1e-170, 1e-160, 1e200):
                x = np.vstack((np.full(n, scale), np.ones(n), np.full(n, -scale)))
                for variant in ("sum", "max-over-Zn", "max-over-Zk"):
                    got = statistic_batch(x, StatisticSpec(variant=variant))
                    assert got[0] == pytest.approx(math.sqrt(n), rel=1e-15), (n, variant)
                    assert got[1] == pytest.approx(math.sqrt(n), rel=1e-15)
                    assert got[2] == statistic(-np.ones(n), StatisticSpec(variant=variant))
            for scale in (1e-170, 1e103):
                got = statistic(np.full(n, scale), StatisticSpec(3.0, "sum"))
                assert got == pytest.approx(n ** (2.0 / 3.0), rel=1e-15)


def test_underflowing_prefix_reads_its_rescaled_ratio():
    # Z(2)^2 underflows to 0 (1e-170) or to a subnormal with a few bits
    # (1e-160) while S(2) does not: the maximum is at k = 2
    x = np.array([[1e-170, 1e-170, 1.0], [1e-160, 1e-160, 1.0], [0.0, 1e-170, 1.0],
                  [0.0, 0.0, 1.0], [1e-170, -1e-170, 1.0], [5e-324, 1e-300, -1e-310]])
    got = statistic_batch(x, StatisticSpec(variant="max-over-Zk"))
    expect = [math.sqrt(2.0), math.sqrt(2.0), 1.0, 1.0, 1.0, (1e-300 + 5e-324) / 1e-300]
    np.testing.assert_allclose(got, expect, rtol=1e-15)


def test_overflowing_row_keeps_its_underflowed_prefix():
    # Z(n) overflows, so the row is redone divided by 1e200, which flushes
    # the first two entries to 0; their prefix, resolved before the rescale,
    # still holds the maximum sqrt(2) at k = 2
    x = np.array([[1e-170, 1e-170, 1e200], [1e-170, 1e-170, 1e308]])
    zk = StatisticSpec(variant="max-over-Zk")
    got = statistic_batch(x, zk)
    np.testing.assert_allclose(got, [math.sqrt(2.0), math.sqrt(2.0)], rtol=1e-15)
    # an overflowing row without such a prefix reads its rescaled self
    assert statistic(np.array([1.0, 1e200, 1e200]), zk) == pytest.approx(
        2.0 / math.sqrt(2.0), rel=1e-15
    )


def test_max_variants_threshold_below_their_euclidean_cap():
    # the max statistics never exceed sqrt(n) and ignore beta, so eps sets
    # the threshold sqrt(n) - eps at every beta; the sum keeps n^(1 - 1/beta)
    runs = {}
    for beta in (2.0, 3.0):
        sampler = SamplerSpec(DensityModel.iid_normal(4), 1, 100_000)
        runs[beta] = estimate_tail(sampler, StatisticSpec(beta, "max-over-Zk"), epsilon=0.1)
        assert runs[beta].threshold == 2.0 - 0.1
    assert runs[3.0].hits == runs[2.0].hits > 0
    sampler = SamplerSpec(DensityModel.iid_normal(4), 1, 1000)
    summed = estimate_tail(sampler, StatisticSpec(3.0, "sum"), epsilon=0.1)
    assert summed.threshold == 4.0 ** (2.0 / 3.0) - 0.1


def test_draw_from_uniforms_leaves_its_input_and_matches_the_formula():
    rng = np.random.default_rng(77)
    u = rng.random((4096, 3))
    u[0] = (0.0, 1.0, 0.5)
    # the clip is [2^-53, 1 - 2^-53]: at the old floor 1e-300, stdtrit(5, .)
    # read +inf
    clipped = np.clip(u, UNIFORM_FLOOR, 1.0 - UNIFORM_FLOOR)
    cov = np.array([[1.0, 0.3, 0.3], [0.3, 1.0, 0.3], [0.3, 0.3, 1.0]])
    gauss = DensityModel.gaussian(np.array([0.5, -1.0, 2.0]), cov)
    cases = (
        (DensityModel.iid_normal(3, mu=0.5, sigma=2.0), 0.5 + 2.0 * ndtri(clipped)),
        (DensityModel.iid_folded_normal(3, shift=1.5), 1.5 + np.abs(ndtri(clipped))),
        (DensityModel.iid_student_t(3, 5.0), stdtrit(5.0, clipped)),
        (gauss, ndtri(clipped) @ gauss.chol.T + gauss.mean),
    )
    for model, expected in cases:
        before = u.copy()
        got = model.draw_from_uniforms(u)
        assert np.array_equal(u, before), model.kind
        assert np.array_equal(got, expected), model.kind
        assert np.all(np.isfinite(got)), model.kind
    x = DensityModel.iid_student_t(3, 5.0).draw_from_uniforms(np.array([[0.0, 0.7, 1.0]]))
    assert x[0, 0] == -x[0, 2] == -stdtrit(5.0, 1.0 - UNIFORM_FLOOR)


def test_holder_cutoff_never_exceeded():
    rng = np.random.default_rng(20240606)
    n = 4
    x = rng.standard_normal((1_000_000, n))
    for beta in (1.5, 2.0, 3.0):
        vals = statistic_batch(x, StatisticSpec(beta, "sum"))
        assert np.max(vals) <= n ** (1.0 - 1.0 / beta) + 1e-12


def test_scale_invariance():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((1000, 5))
    for spec in (
        StatisticSpec(2.0, "sum"),
        StatisticSpec(3.0, "sum"),
        StatisticSpec(2.0, "max-over-Zn"),
        StatisticSpec(2.0, "max-over-Zk"),
    ):
        base = statistic_batch(x, spec)
        for c in (1e-6, 0.5, 3.0, 1e8):
            np.testing.assert_allclose(
                statistic_batch(c * x, spec), base, rtol=1e-12
            )


def test_max_variant_dominates_final_ratio():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((50_000, 4))
    sums = statistic_batch(x, StatisticSpec(2.0, "sum"))
    maxes = statistic_batch(x, StatisticSpec(2.0, "max-over-Zn"))
    assert np.all(maxes >= sums - 1e-12)


def test_worker_counts_agree_bitwise():
    model = DensityModel.iid_normal(3)
    hits = []
    for workers in (1, 2, 4, 8):
        sampler = SamplerSpec(model, 42, 300_000, workers)
        est = estimate_tail(sampler, StatisticSpec(2.0, "sum"), epsilon=0.3)
        hits.append(est.hits)
    assert hits[0] == hits[1] == hits[2] == hits[3]


def test_stream_is_chunk_stable():
    # splitting into chunks must reproduce one monolithic draw sequence
    model = DensityModel.iid_normal(2)
    small = SamplerSpec(model, 7, CHUNK_TRIALS + 1234, 1)
    chunks = list(sample_batch(small))
    assert [c.shape[0] for c in chunks] == [CHUNK_TRIALS, 1234]
    merged = np.vstack(chunks)
    direct = np.vstack(list(sample_batch(SamplerSpec(model, 7, 2000, 1))))
    np.testing.assert_array_equal(merged[:2000], direct)


def test_discrete_samplers():
    rad = SamplerSpec(DiscreteModel(3, "rademacher"), 5, 4096, 1)
    draws = np.vstack(list(sample_batch(rad)))
    assert set(np.unique(draws)) == {-1.0, 1.0}
    deg = SamplerSpec(DiscreteModel(3, "degenerate-first-coordinate"), 5, 4096, 1)
    draws = np.vstack(list(sample_batch(deg)))
    assert np.all(draws[:, 0] == 0.0)
    assert np.std(draws[:, 1]) > 0.5


def test_degenerate_estimate_in_the_window_draws_nothing(monkeypatch):
    # the first coordinate is always 0, and inside counterexample's window
    # one coordinate <= 0 already keeps a row below the threshold (J = 1)
    def no_draws(*args, **kwargs):
        raise AssertionError("a chunk was drawn")

    monkeypatch.setattr(montecarlo, "_chunk_draws", no_draws)
    n = 20
    eps = 0.9 * (math.sqrt(n) - math.sqrt(n - 1))
    sampler = SamplerSpec(DiscreteModel(n, "degenerate-first-coordinate"), 1, 10**6, 2)
    stat = StatisticSpec(2.0, "sum")
    assert _sign_cut(n, stat, math.sqrt(n) - eps) == 1
    assert _row_cut(sampler, stat, math.sqrt(n) - eps) is None  # hashed as stream 1
    est = estimate_tail(sampler, stat, epsilon=eps)
    assert (est.hits, est.trials) == (0, 10**6)


def test_degenerate_estimate_beyond_the_window_passes_the_reduced_sphere_law():
    # eps = 0.5 is past sqrt(3) - sqrt(2), so rows with both free
    # coordinates positive hit, at the n = 2 sphere-law rate 0.1633
    sampler = SamplerSpec(DiscreteModel(3, "degenerate-first-coordinate"), 1, 10**5, 1)
    est = estimate_tail(sampler, StatisticSpec(2.0, "sum"), epsilon=0.5)
    within, resolved, gate = est.judge(degenerate_component_check(3, 0.5).value)
    assert est.hits == 16461
    assert (within, resolved) == (True, True), gate


def test_sampler_spec_validation():
    model = DensityModel.iid_normal(3)
    with pytest.raises(ValueError):
        SamplerSpec(model, -1, 1000, 1)
    with pytest.raises(ValueError):
        SamplerSpec(model, 2**64, 1000, 1)
    with pytest.raises(ValueError):
        DiscreteModel(3, "not-a-model")
    with pytest.raises(ValueError):
        SamplerSpec(model, 0, 0, 1)
    with pytest.raises(ValueError):
        StatisticSpec(1.0, "sum")
    with pytest.raises(ValueError):
        StatisticSpec(2.0, "median")


def test_estimate_tail_threshold_epsilon_exclusive():
    sampler = SamplerSpec(DensityModel.iid_normal(3), 1, 1000, 1)
    stat = StatisticSpec(2.0, "sum")
    with pytest.raises(ValueError):
        estimate_tail(sampler, stat, epsilon=2.0)
    with pytest.raises(ValueError):
        estimate_tail(
            SamplerSpec(DensityModel.iid_normal(3), 1, 999, 1), stat, epsilon=0.3
        )


def test_wilson_interval_behavior():
    lo, hi = wilson_interval(0, 1000)
    assert lo == 0.0
    assert 0.0 < hi < 0.01
    lo, hi = wilson_interval(1000, 1000)
    assert hi == 1.0
    lo, hi = wilson_interval(500, 1000)
    assert lo < 0.5 < hi
    with pytest.raises(ValueError):
        wilson_interval(-1, 100)
    with pytest.raises(ValueError):
        wilson_interval(101, 100)


def test_judge_at_p_zero_is_within_exactly_without_hits():
    sampler = SamplerSpec(DiscreteModel(3, "degenerate-first-coordinate"), 1, 1000, 1)
    stat = StatisticSpec(2.0, "sum")
    for hits in (0, 1, 1000):
        within, resolved, _ = _estimate(sampler, stat, 1.0, hits).judge(0.0)
        assert within == (hits == 0)
        assert not resolved


def test_spec_hash_sensitivity():
    model = DensityModel.iid_normal(3)
    a = spec_hash(SamplerSpec(model, 1, 1000, 1), StatisticSpec(2.0, "sum"), 1.0)
    b = spec_hash(SamplerSpec(model, 1, 1000, 1), StatisticSpec(2.0, "sum"), 1.0)
    assert a == b
    c = spec_hash(SamplerSpec(model, 2, 1000, 1), StatisticSpec(2.0, "sum"), 1.0)
    d = spec_hash(SamplerSpec(model, 1, 1000, 1), StatisticSpec(2.0, "sum"), 1.1)
    assert len({a, c, d}) == 3
    # worker count is an execution detail, not part of the experiment identity
    e = spec_hash(SamplerSpec(model, 1, 1000, 8), StatisticSpec(2.0, "sum"), 1.0)
    assert e == a


def test_estimate_payload_round_trip():
    sampler = SamplerSpec(DensityModel.iid_normal(3), 3, 10_000, 1)
    est = estimate_tail(sampler, StatisticSpec(2.0, "sum"), epsilon=0.3)
    payload = est.to_payload()
    for key in ("hits", "trials", "p_hat", "ci_low", "ci_high", "seed"):
        assert key in payload
    assert payload["trials"] == 10_000
    assert payload["p_hat"] == pytest.approx(payload["hits"] / payload["trials"])
    assert est.covers(est.p_hat)


def test_strictly_positive_model_collapses_max_variants():
    sampler = SamplerSpec(DensityModel.iid_folded_normal(3), 21, 100_000, 1)
    cmp = compare_max_vs_sum(sampler, 0.1)
    assert cmp.all_coincide
    assert cmp.coincidence_rate == 1.0
    assert cmp.max_without_sum == 0
    assert cmp.ratio == pytest.approx(1.0, abs=1e-15)


def test_comparison_window_warning():
    sampler = SamplerSpec(DensityModel.iid_normal(3), 21, CHUNK_TRIALS, 1)
    inside = compare_max_vs_sum(sampler, 0.9 * 0.5 / math.sqrt(2.0))
    assert not any("window" in w for w in inside.warnings)
    outside = compare_max_vs_sum(sampler, 1.1 * 0.5 / math.sqrt(2.0))
    assert any("window" in w for w in outside.warnings)


def test_max_counts_dominate_sum_counts():
    sampler = SamplerSpec(DensityModel.iid_normal(4), 33, 200_000, 2)
    cmp = compare_max_vs_sum(sampler, 0.2)
    assert cmp.max_zn_estimate.hits >= cmp.sum_estimate.hits
    assert cmp.max_zk_estimate.hits >= cmp.max_zn_estimate.hits
    assert cmp.trials == 200_000


def test_coverage_meta():
    # The Wilson CI must cover the exact value in at least 93% of 500
    # seeded runs.  A correct 95% interval fails that with probability
    # P(Bin(500, 0.95) < 465) = 1.96%; at 93 of 100 seeds it was 12.8%.
    oracle = sphere_tail_exact(3, math.sqrt(3.0) - 0.3).value
    model = DensityModel.iid_normal(3)
    covered = 0
    for seed in range(500):
        sampler = SamplerSpec(model, seed, 100_000, 1)
        est = estimate_tail(sampler, StatisticSpec(2.0, "sum"), epsilon=0.3)
        covered += est.covers(oracle)
    assert covered >= 465


@pytest.mark.parametrize("n, eps", [(3, 0.1), (9, 0.4)])
def test_comparison_counts_equal_separate_estimates(n, eps):
    sampler = SamplerSpec(DensityModel.iid_normal(n), 5, 2 * CHUNK_TRIALS + 777, 2)
    cmp = compare_max_vs_sum(sampler, eps)
    pairs = (
        (cmp.max_zn_estimate, "max-over-Zn"),
        (cmp.max_zk_estimate, "max-over-Zk"),
        (cmp.sum_estimate, "sum"),
    )
    for got, variant in pairs:
        alone = estimate_tail(sampler, StatisticSpec(2.0, variant), epsilon=eps)
        assert got == dataclasses.replace(alone, warnings=cmp.warnings)
        assert got.threshold == math.sqrt(n) - eps


def _bound(n_pos, spec):
    """Hoelder's cap on a row with n_pos positive coordinates."""
    if spec.variant == "sum":
        return n_pos ** (1.0 - 1.0 / spec.beta)
    return math.sqrt(n_pos)


def _filter_specs():
    return [StatisticSpec(beta, v) for beta in (2.0, 3.0) for v in STATISTICS]


def _thresholds(n, spec):
    """1e-12 below and above each bound, a few ulps above it, the midpoints
    between bounds, and the edges of the 1e-9 slack."""
    out = [-1.0, 0.0]
    bounds = [_bound(n - j, spec) for j in range(n + 1)]
    for b, below in zip(bounds, bounds[1:] + [0.0]):
        out += [b - 1e-12, b + 1e-12, 0.5 * (b + below)]
        out += [b * (1.0 + k * 2.0**-52) for k in (1, 2, 4)]
        out += [b * (1.0 + 1e-9) * (1.0 - 1e-15), b * (1.0 + 1e-9) * (1.0 + 1e-15)]
    return out


@pytest.mark.parametrize("n", [2, 3, 9, 64])
def test_sign_cut_matches_a_search_over_j(n):
    for spec in _filter_specs():
        for t in _thresholds(n, spec):
            safe = [j for j in range(n + 1) if _bound(n - j, spec) * (1.0 + 1e-9) < t]
            assert _sign_cut(n, spec, t) == min(safe, default=n + 1), (spec, t)


def _bits(words):
    """Bit k of word q at flat position 64 q + k, as (word >> k) & 1."""
    return ((words[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)).ravel()


def _stream_words(seed, chunk, n, count):
    """The first `count` raw Philox words of a sign-first chunk."""
    bitgen = np.random.Philox(key=seed)
    bitgen.advance(chunk * 2 * CHUNK_TRIALS * n // 4)
    return bitgen.random_raw(count)


def _plane_bits(planes, m):
    """The (m, n) sign bits of the first m rows of n planes: coordinate j of
    row i is bit i of plane j."""
    return np.stack([_bits(plane)[:m] for plane in planes], axis=1).astype(bool)


def _reference_signs(seed, chunk, m, n):
    """The (m, n) sign bits of a sign-first chunk, read off the raw Philox
    words."""
    planes = _stream_words(seed, chunk, n, CHUNK_TRIALS * n // 64).reshape(n, -1)
    return _plane_bits(planes, m)


def _signed_draws(model, u, negative):
    x = model.draw_from_uniforms(u)
    return np.where(negative, -x, x)


@pytest.mark.parametrize("n", [2, 3, 9])
def test_dropped_rows_never_hit(n):
    # the sign bits of a real chunk with independent magnitudes, and rows at
    # the bounds: n - j equal positive magnitudes and j negative ones of
    # magnitude 0 or the least above it, whose statistic rounds up to a few
    # ulps over the bound
    rng = np.random.default_rng(11)
    edges = [
        np.where(np.arange(n) < n - j, level, least)
        for j in range(n)
        for level in np.linspace(0.6, 0.99, 400)
        for least in (0.5, 0.5 + 2.0**-53)
    ]
    u = np.vstack([0.5 + 0.5 * rng.random((20_000, n))] + edges)
    edge_signs = [np.arange(n) >= n - j for j in range(n) for _ in range(800)]
    negative = np.vstack([_reference_signs(11, 0, 20_000, n)] + edge_signs)
    negatives = np.count_nonzero(negative, axis=1)
    for model in (DensityModel.iid_normal(n), DensityModel.iid_student_t(n, 5.0)):
        x = _signed_draws(model, u, negative)
        assert np.array_equal(negatives, np.count_nonzero(np.signbit(x), axis=1))
        for spec in _filter_specs():
            values = statistic_batch(x, spec)
            for t in _thresholds(n, spec):
                dropped = negatives >= _sign_cut(n, spec, t)
                assert np.all(values[dropped] <= t), (model.kind, spec, t)


def _reference_hits(sampler, spec, threshold):
    """Hits of full chunks.  A model drawn sign first gets every row of each
    chunk: the kept rows from the chunk's own sign bits and magnitudes, the
    dropped rows from its sign bits and magnitudes of an independent
    generator.  Any other model gets the full draws of `sample_batch`."""
    cut = _row_cut(sampler, spec, threshold)
    if cut is None:
        chunks = list(sample_batch(sampler))
    else:
        n, rng, chunks = sampler.model.n, np.random.default_rng(99), []
        for c, m in enumerate(_chunk_sizes(sampler.trials)):
            negative = _reference_signs(sampler.seed, c, m, n)
            kept = np.count_nonzero(negative, axis=1) < cut
            u = 0.5 + 0.5 * rng.random((m, n))
            u[kept], kept_negative = _chunk_uniforms(sampler.seed, c, m, n, cut)
            if kept_negative is None:  # cut 1: every kept row is positive
                assert cut == 1
            else:
                assert np.array_equal(kept_negative, negative[kept])
            chunks.append(_signed_draws(sampler.model, u, negative))
    return sum(
        int(np.count_nonzero(statistic_batch(draws, spec) > threshold))
        for draws in chunks
    )


@pytest.mark.parametrize("workers", [1, 2])
def test_filtered_estimates_count_the_same_hits(workers, monkeypatch):
    # at cut 1 the cell screen judges the kept rows: it must run there, so
    # that the hits below check it, and nowhere else
    screened = []

    def spy(*args):
        screened.append(screen(*args))
        return screened[-1]

    screen = montecarlo._screened_hits
    monkeypatch.setattr(montecarlo, "_screened_hits", spy)
    trials = 2 * CHUNK_TRIALS + 777
    cases = (
        (DensityModel.iid_normal(3), True),
        (DensityModel.iid_normal(3, sigma=0.37), True),
        (DensityModel.iid_normal(2), True),
        (DensityModel.iid_student_t(4, 5.0), True),
        (DensityModel.iid_normal(3, mu=0.2), False),
    )
    for model, filtered in cases:
        n = model.n
        sampler = SamplerSpec(model, 5, trials, workers)
        for spec, eps in (
            (StatisticSpec(2.0, "sum"), 0.1),
            (StatisticSpec(3.0, "sum"), 0.05),
            (StatisticSpec(1.5, "sum"), 0.1),
            # cut 2 at n >= 3: the kept rows carry up to one negative coordinate
            (StatisticSpec(2.0, "sum"), 0.35),
            (StatisticSpec(2.0, "max-over-Zn"), 0.1),
            # threshold sqrt(n) - 0.3: the max variants ignore beta
            (StatisticSpec(3.0, "max-over-Zk"), 0.3),
        ):
            screened.clear()
            est = estimate_tail(sampler, spec, epsilon=eps)
            cut = _row_cut(sampler, spec, est.threshold)
            assert (cut is not None) == filtered
            assert len(screened) == (cut == 1) and None not in screened
            assert est.hits == _reference_hits(sampler, spec, est.threshold) > 0
        cmp = compare_max_vs_sum(sampler, 0.1)
        for got, variant in (
            (cmp.sum_estimate, "sum"),
            (cmp.max_zn_estimate, "max-over-Zn"),
            (cmp.max_zk_estimate, "max-over-Zk"),
        ):
            expect = _reference_hits(sampler, StatisticSpec(2.0, variant), got.threshold)
            assert got.hits == expect > 0, (model.kind, variant)


@pytest.mark.parametrize("workers", [1, 2])
def test_screen_judges_held_band_rows_at_any_flush_size(workers, monkeypatch):
    # a worker that judges its band after every chunk counts the same hits
    # as one that holds the whole band
    draws = []
    draw = DensityModel.draw_from_uniforms
    monkeypatch.setattr(
        DensityModel, "draw_from_uniforms", lambda self, u: draws.append(len(u)) or draw(self, u)
    )
    sampler = SamplerSpec(DensityModel.iid_normal(3), 5, 4 * CHUNK_TRIALS + 777, workers)
    spec = StatisticSpec(2.0, "max-over-Zk")
    held = estimate_tail(sampler, spec, epsilon=0.1)
    assert len(draws) == 1 + workers  # the cell table, then one band per worker
    monkeypatch.setattr(montecarlo, "_BAND_ROWS", 1)
    draws.clear()
    assert estimate_tail(sampler, spec, epsilon=0.1) == held
    # every full chunk has band rows; the last, of 777 rows, may have none
    assert len(draws) >= 4 and all(draws)


def test_sign_first_chunks_read_disjoint_word_ranges():
    # chunk c reads its n sign planes from c * 2 * CHUNK_TRIALS * n on and
    # the kept rows' magnitudes right after them, plane by plane; even a
    # chunk that keeps every row (cut n + 1) ends before chunk c + 1 starts
    seed, m = 3, CHUNK_TRIALS
    for n, cut in ((2, 1), (3, 2), (3, 4)):
        stride = 2 * CHUNK_TRIALS * n
        sign_words = CHUNK_TRIALS * n // 64
        stream = np.random.Philox(key=seed).random_raw(3 * stride)
        spans = []
        for c in range(3):
            u, negative = _chunk_uniforms(seed, c, m, n, cut)
            planes = stream[c * stride : c * stride + sign_words].reshape(n, -1)
            signs = _plane_bits(planes, m)
            kept = np.count_nonzero(signs, axis=1) < cut
            if negative is None:
                assert cut == 1 and u.shape[0] == np.count_nonzero(kept)
            else:
                assert np.array_equal(negative, signs[kept])
            start = c * stride + sign_words
            words = stream[start : start + u.size].reshape(u.shape[::-1])
            assert u.T.flags.c_contiguous
            assert np.array_equal(u.T, 0.5 + (words >> np.uint64(12)) * 2.0**-53)
            assert np.all((0.5 <= u) & (u < 1.0))
            spans.append((c * stride, start + u.size))
            assert start + m * n <= (c + 1) * stride
        assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))


def test_sign_bits_unpack_little_endian():
    # bit k of word q of a plane is row 64 q + k, on any host byte order
    words = np.array([[1 | 1 << 63], [1 << 8], [0xF0]], dtype=np.uint64)
    random = np.random.default_rng(4).integers(0, 2**64, size=(7, 5), dtype=np.uint64)
    for planes, m in ((words, 64), (words, 37), (random, 300), (random, 320)):
        n = len(planes)
        expect = _plane_bits(planes, m)
        for copy in (planes, planes.astype(">u8")):
            # cut n + 1 keeps every row
            assert np.array_equal(_kept_signs(copy, m, n + 1).T, expect)
            assert _rows_with_a_sign(copy, m) == np.count_nonzero(expect.any(axis=1))


def test_cut_one_shortcut_draws_the_plane_path_bits():
    # at cut 1 no sign array is built; the general plane path, run at the
    # same cut on the same words, keeps as many rows and gives the same
    # draws, on a full chunk and on a short last one
    for model in (DensityModel.iid_normal(3), DensityModel.iid_student_t(5, 5.0)):
        n = model.n
        sampler = SamplerSpec(model, 21, 2 * CHUNK_TRIALS + 1037, 1)
        for c, m in ((1, CHUNK_TRIALS), (2, 1037)):
            words = _stream_words(sampler.seed, c, n, 2 * CHUNK_TRIALS * n)
            sign_words = CHUNK_TRIALS * n // 64
            general = _kept_signs(words[:sign_words].reshape(n, -1), m, 1)
            k = general.shape[1]
            magnitudes = words[sign_words : sign_words + k * n].reshape(n, k).T
            x = model.draw_from_uniforms(0.5 + (magnitudes >> np.uint64(12)) * 2.0**-53)
            x = np.where(general.T, -x, x)
            assert _chunk_uniforms(sampler.seed, c, m, n, 1)[1] is None
            got = _chunk_draws(sampler, c, m, 1)
            assert got.T.flags.c_contiguous and got.shape == (k, n) and k > 0
            assert np.array_equal(got.view(np.uint64), x.view(np.uint64))


@pytest.mark.parametrize("n, cut", [(3, 1), (9, 3), (9, 6)])
def test_kept_rows_per_chunk_follow_the_binomial(n, cut):
    # every coordinate's sign is a fair coin, so chunk c keeps
    # Bin(m, P(Bin(n, 1/2) < cut)) rows, independently of other chunks
    chunks = 40
    p = sum(math.comb(n, i) for i in range(cut)) / 2**n
    kept = np.array(
        [_chunk_uniforms(17, c, CHUNK_TRIALS, n, cut)[0].shape[0] for c in range(chunks)]
    )
    var = CHUNK_TRIALS * p * (1.0 - p)
    assert np.all(np.abs(kept - CHUNK_TRIALS * p) <= 5.0 * math.sqrt(var))
    assert abs(kept.sum() - chunks * CHUNK_TRIALS * p) <= 5.0 * math.sqrt(chunks * var)
    # chunks that shared words would spread too little; chi^2(39)/39 lies
    # in (0.3, 2.2) but with probability below 1e-6
    assert 0.3 < np.var(kept, ddof=1) / var < 2.2


@pytest.mark.parametrize(
    "n, eps, trials", [(2, 0.3, 100_000), (3, 0.2, 100_000), (9, 0.15, 10**7), (9, 0.9, 100_000)]
)
def test_sign_first_estimates_match_the_sphere_law(n, eps, trials):
    # `sum` follows the sphere law at every eps; below eps = sqrt(n) -
    # sqrt(n - 1) no prefix k < n reaches the threshold, so the max
    # variants do too.  At n = 9, eps = 0.9 the kept rows have up to 4
    # negative coordinates.
    variants = STATISTICS if eps < math.sqrt(n) - math.sqrt(n - 1) else ("sum",)
    p = sphere_tail_exact(n, math.sqrt(n) - eps).value
    assert p * trials >= 100
    sampler = SamplerSpec(DensityModel.iid_normal(n), 8, trials, 2)
    for variant in variants:
        spec = StatisticSpec(2.0, variant)
        est = estimate_tail(sampler, spec, epsilon=eps)
        assert _row_cut(sampler, spec, est.threshold) is not None
        assert abs(est.p_hat - p) <= 5.0 * math.sqrt(p * (1.0 - p) / trials), variant


def test_sign_first_estimate_at_n64_has_no_stray_hits():
    # at n = 64 the filter runs only where the sphere law is below 1e-10,
    # so 5 sigma allows no hit.  The kept rows carry up to 27 negative
    # coordinates; with a sign lost they would read about 6.4 > 6.05.
    n, eps, trials = 64, 1.95, 10**6
    p = sphere_tail_exact(n, math.sqrt(n) - eps).value
    sampler = SamplerSpec(DensityModel.iid_normal(n), 8, trials, 2)
    spec = StatisticSpec(2.0, "sum")
    est = estimate_tail(sampler, spec, epsilon=eps)
    assert _row_cut(sampler, spec, est.threshold) == 28
    assert abs(est.p_hat - p) <= 5.0 * math.sqrt(p * (1.0 - p) / trials)


def test_unfiltered_estimates_keep_their_stream_and_hash():
    # hits and digests of stream 1, recorded before the sign-first stream
    # existed; a filtered run's digest records its stream, now stream 3
    sampler = SamplerSpec(DensityModel.iid_normal(3, mu=0.2), 5, 2 * CHUNK_TRIALS + 777, 1)
    for spec, eps, hits, digest in (
        (StatisticSpec(2.0, "sum"), 0.1, 6175, "b04aa0dba0f677e4"),
        (StatisticSpec(2.0, "max-over-Zk"), 0.3, 18207, "9ae5aee221cabeed"),
    ):
        est = estimate_tail(sampler, spec, epsilon=eps)
        assert (est.hits, est.spec_hash) == (hits, digest)
    filtered = dataclasses.replace(sampler, model=DensityModel.iid_normal(3))
    est = estimate_tail(filtered, StatisticSpec(2.0, "sum"), epsilon=0.1)
    assert est.spec_hash != "fbc61df1da452983"  # its stream 1 digest
    assert est.spec_hash != "d37fd67edb556ced"  # its stream 2 digest
    assert est.spec_hash == "01b8bb5d3d4692ca"


def test_draws_are_negative_below_the_median():
    # a dense grid of u < 1/2, the ulps just below 1/2 and the clip floor
    below = np.concatenate((
        np.linspace(UNIFORM_FLOOR, 0.5, 20_001)[:-1],
        np.geomspace(UNIFORM_FLOOR, 0.5, 2001)[:-1],
        0.5 - np.arange(1, 1001) * 2.0**-54,
        [UNIFORM_FLOOR, 0.0],
    ))
    assert np.all(below < 0.5)
    clipped = np.clip(below, UNIFORM_FLOOR, 0.5)
    assert np.all(ndtri(clipped) < 0.0)
    # models take nu > 2; below that stdtrit can overflow to +inf inside
    # (0, 1/2) (nu = 0.05 at u = 9.76e-9), but not at the clip floor
    for nu in (0.5, 1.0, 2.0, 2.5, 5.0, 30.0, 1000.0):
        assert np.all(stdtrit(nu, clipped) < 0.0), nu
    for nu in (0.05, 0.5, 1.0, 2.0, 5.0, 30.0, 1000.0):
        low, high = stdtrit(nu, [UNIFORM_FLOOR, 1.0 - UNIFORM_FLOOR])
        assert math.isfinite(low) and low == -high < 0.0, nu
    models = [
        (DensityModel.iid_normal(3), True),
        (DensityModel.iid_normal(3, sigma=0.1), True),
        (DensityModel.iid_normal(3, mu=0.2), False),
        (DensityModel.iid_normal(3, mu=-0.2), False),
        (DensityModel.iid_folded_normal(3), False),
        (DensityModel.gaussian(np.zeros(3), np.eye(3) + 0.3), False),
    ] + [(DensityModel.iid_student_t(3, nu), True) for nu in (2.5, 5.0, 30.0, 1000.0)]
    for model, splits in models:
        assert model.signs_split_at_median() == splits, model.kind
        if splits:
            u = np.repeat(below[:, None], 3, axis=1)
            assert np.all(model.draw_from_uniforms(u) < 0.0), model.kind


def _screen_models(n=3):
    return [
        DensityModel.iid_normal(n),
        DensityModel.iid_normal(n, sigma=0.37),
    ] + [DensityModel.iid_student_t(n, nu) for nu in (2.01, 3.0, 5.0, 30.0)]


def _magnitude_uniforms(rng, shape):
    """Uniforms of magnitudes as stream 3 makes them, 1/2 + w * 2^-53 for
    52-bit w, with the first and last w of random cells among them."""
    w = rng.integers(0, 2**52, size=shape, dtype=np.uint64)
    cells = rng.integers(0, MAGNITUDE_CELLS, size=shape, dtype=np.uint64)
    last = rng.integers(0, 2, size=shape, dtype=np.uint64) * np.uint64(2**40 - 1)
    edge = rng.random(shape) < 0.1
    w[edge] = (cells[edge] << np.uint64(40)) + last[edge]
    return 0.5 + w * 2.0**-53


def test_cell_edges_are_the_draws_at_the_edges_and_never_decrease():
    edges_u = 0.5 + np.arange(MAGNITUDE_CELLS + 1) / (2 * MAGNITUDE_CELLS)
    for model in _screen_models():
        edges = model.cell_edges
        assert edges is model.cell_edges  # built once per model
        x = model.draw_from_uniforms(np.repeat(edges_u[:, None], 3, axis=1))[:, 0]
        assert np.array_equal(edges, x) and edges[0] == 0.0, model.nu
        assert np.all(np.isfinite(edges)) and np.all(np.diff(edges) >= 0.0), model.nu


def test_cell_edges_reject_a_decreasing_inverse_cdf(monkeypatch):
    monkeypatch.setattr(DensityModel, "draw_from_uniforms", lambda self, u: 1.0 - u)
    with pytest.raises(RuntimeError, match="decreases"):
        DensityModel.iid_normal(3).cell_edges


def test_magnitudes_lie_between_their_cell_edges():
    # each draw lies within its cell's edges, up to the few ulps by which
    # stdtrit fails to be monotone (1.2e-15 relative at nu = 2.01 on scipy
    # 1.17), far inside the screen's 1e-9 slack
    rng = np.random.default_rng(2)
    u = _magnitude_uniforms(rng, (50_000, 3))
    cells = (u.view(np.int64) >> 40) - (0x3FE0000000000000 >> 40)
    assert np.array_equal(cells, np.floor((u - 0.5) * 2 * MAGNITUDE_CELLS))
    for model in _screen_models():
        x, edges = model.draw_from_uniforms(u), model.cell_edges
        assert np.all(edges[cells] * (1.0 - 1e-13) <= x), model.nu
        assert np.all(x <= edges[cells + 1] * (1.0 + 1e-13)), model.nu


def _screen_specs():
    return [StatisticSpec(beta, "sum") for beta in (1.5, 2.0, 3.0)] + [
        StatisticSpec(2.0, "max-over-Zn")
    ]


@pytest.mark.parametrize("n", [2, 3, 5])
def test_rows_at_the_threshold_land_in_the_band(n):
    # a threshold within 1e-12 of a row's own statistic, above or below it,
    # never gets a sure decision; rows along the diagonal (equal cells), in
    # cell 0 and in the last cell are among them
    rng = np.random.default_rng(n)
    u = np.vstack((
        _magnitude_uniforms(rng, (3000, n)),
        np.repeat(_magnitude_uniforms(rng, (300, 1)), n, axis=1),
        0.5 + rng.random((200, n)) * 2.0**-13,
        np.where(rng.random((200, n)) < 0.5, 1.0 - 2.0**-53, 0.75),
    ))
    for model in _screen_models(n):
        x = model.draw_from_uniforms(u)
        for spec in _screen_specs():
            power = spec.beta if spec.variant == "sum" else 2.0
            bounds = _cell_bounds(model, power)
            values = statistic_batch(x, spec)
            for factor in (1.0 - 1e-12, 1.0, 1.0 + 1e-12):
                hit, band = _screen(u, bounds, power, values * factor)
                assert band.all() and not hit.any(), (model.nu, spec, factor)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_screen_slack_on_cells_of_zero_width(n):
    # with lo = hi in every cell both bounds are the statistic itself, up to
    # rounding: within 1e-12 of it a row stays in the band, and 2e-9 away,
    # beyond the 1e-9 slack, it is decided
    rng = np.random.default_rng(20 + n)
    u = _magnitude_uniforms(rng, (5000, n))
    cells = np.floor((u - 0.5) * 2 * MAGNITUDE_CELLS).astype(int)
    level = np.sort(rng.random(MAGNITUDE_CELLS)) + 0.01
    for spec in _screen_specs():
        power = spec.beta if spec.variant == "sum" else 2.0
        bounds = np.stack((level, level, level**power, level**power), axis=1)
        values = statistic_batch(level[cells], spec)
        for factor in (1.0 - 1e-12, 1.0, 1.0 + 1e-12):
            hit, band = _screen(u, bounds, power, values * factor)
            assert band.all() and not hit.any(), (spec, factor)
        hit, band = _screen(u, bounds, power, values * (1.0 - 2e-9))
        assert hit.all() and not band.any(), spec
        hit, band = _screen(u, bounds, power, values * (1.0 + 2e-9))
        assert not hit.any() and not band.any(), spec


def test_screen_steps_aside_where_its_bounds_leave_the_doubles():
    # threshold^beta overflows at beta = 1000 (a Python float raises), and
    # the edges' powers go subnormal or overflow sooner on some models: the
    # run then takes the plain sign-first path, with the parent's hits
    assert _cell_bounds(DensityModel.iid_normal(3), 87.0) is not None
    for model, beta in (
        (DensityModel.iid_normal(3), 90.0),
        (DensityModel.iid_normal(3, sigma=1e-3), 60.0),
        (DensityModel.iid_student_t(3, 2.01), 40.0),
    ):
        assert _cell_bounds(model, beta) is None, (model.sigma, model.nu)
    spec = StatisticSpec(1000.0, "sum")
    eps = 0.5 * (3.0 ** _cap_power(spec) - 2.0 ** _cap_power(spec))
    sampler = SamplerSpec(DensityModel.iid_normal(3), 1, 300_000, 1)
    est = estimate_tail(sampler, spec, eps)
    assert _row_cut(sampler, spec, est.threshold) == 1
    assert est.hits == 2420


@pytest.mark.parametrize("n", [2, 3, 5])
def test_sure_decisions_agree_with_the_statistic(n):
    # at cut-1 thresholds the screen decides most rows, and rightly
    rng = np.random.default_rng(10 + n)
    u = _magnitude_uniforms(rng, (20_000, n))
    for model in (DensityModel.iid_normal(n), DensityModel.iid_student_t(n, 3.0)):
        x = model.draw_from_uniforms(u)
        for spec in _screen_specs():
            power = spec.beta if spec.variant == "sum" else 2.0
            values = statistic_batch(x, spec)
            cap = n ** _cap_power(spec)
            for eps in (0.02, 0.1, 0.3):
                threshold = cap - eps * (cap - (n - 1) ** _cap_power(spec))
                assert _sign_cut(n, spec, threshold) == 1
                hit, band = _screen(u, _cell_bounds(model, power), power, threshold)
                assert np.all(values[hit] > threshold)
                assert np.all(values[~hit & ~band] <= threshold)
                assert np.count_nonzero(band) < 0.05 * len(u), (model.kind, spec, eps)
