"""Sampling determinism, statistic properties, and interval behavior."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.special import ndtri, stdtrit

from sntail.density import DensityModel
from sntail.montecarlo import (
    CHUNK_TRIALS,
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
from sntail.oracles import sphere_tail_exact


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
    """The row-wise cumsum form of statistic_batch, frozen as the reference."""
    sq = x * x
    if not np.all(np.any(x != 0.0, axis=1)):
        raise ValueError("statistic undefined on the zero vector")
    if stat.variant == "sum":
        num = np.sum(x, axis=1)
        if stat.beta == 2.0:
            den = np.sqrt(np.sum(sq, axis=1))
        else:
            den = np.sum(np.abs(x) ** stat.beta, axis=1) ** (1.0 / stat.beta)
        return num / den
    if stat.variant == "max-over-Zn":
        num = np.max(np.cumsum(x, axis=1)[:, 1:], axis=1)
        return num / np.sqrt(np.sum(sq, axis=1))
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
    # max-over-Zk); squares of 1e-170 underflow, so there the norm vanishes
    # under a partial sum that does not.  Row n + 2 underflows whole: the
    # reference is +-inf there, and statistic_batch rescales that row only,
    # so it reads like a row of ones and every other row keeps its bits.
    for j in range(1, n):
        x[j, :j] = 0.0
    x[n, : n - 1] = 1e-170
    x[n, n - 1] = 2.0
    x[n + 1, 1:] = 0.0
    x[n + 2] = 1e-170
    rest = np.arange(x.shape[0]) != n + 2
    for spec in _REFERENCE_SPECS:
        got = statistic_batch(x, spec)
        with np.errstate(divide="ignore"):
            expect = _rowwise_statistic_batch(x, spec)
        assert np.array_equal(got[rest], expect[rest]), spec
        assert got[n + 2] == statistic_batch(np.ones((1, n)), spec)[0], spec
    zk = statistic_batch(x, "max-over-Zk")
    assert zk[n] == 1.0
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
                    got = statistic_batch(x, variant)
                    assert got[0] == pytest.approx(math.sqrt(n), rel=1e-15), (n, variant)
                    assert got[1] == pytest.approx(math.sqrt(n), rel=1e-15)
                    assert got[2] == statistic(-np.ones(n), variant)
            for scale in (1e-170, 1e103):
                got = statistic(np.full(n, scale), StatisticSpec(3.0, "sum"))
                assert got == pytest.approx(n ** (2.0 / 3.0), rel=1e-15)


def test_draw_from_uniforms_leaves_its_input_and_matches_the_formula():
    rng = np.random.default_rng(77)
    u = rng.random((4096, 3))
    u[0] = (0.0, 1.0, 0.5)
    clipped = np.clip(u, 1e-300, 1.0 - 1e-16)
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
    for workers in (1, 4, 8):
        sampler = SamplerSpec(model, 3, 42, 300_000, workers)
        est = estimate_tail(sampler, StatisticSpec(2.0, "sum"), epsilon=0.3)
        hits.append(est.hits)
    assert hits[0] == hits[1] == hits[2]


def test_stream_is_chunk_stable():
    # splitting into chunks must reproduce one monolithic draw sequence
    model = DensityModel.iid_normal(2)
    small = SamplerSpec(model, 2, 7, CHUNK_TRIALS + 1234, 1)
    chunks = list(sample_batch(small))
    assert [c.shape[0] for c in chunks] == [CHUNK_TRIALS, 1234]
    merged = np.vstack(chunks)
    direct = np.vstack(list(sample_batch(SamplerSpec(model, 2, 7, 2000, 1))))
    np.testing.assert_array_equal(merged[:2000], direct)


def test_discrete_samplers():
    rad = SamplerSpec("rademacher", 3, 5, 4096, 1)
    draws = np.vstack(list(sample_batch(rad)))
    assert set(np.unique(draws)) == {-1.0, 1.0}
    deg = SamplerSpec("degenerate-first-coordinate", 3, 5, 4096, 1)
    draws = np.vstack(list(sample_batch(deg)))
    assert np.all(draws[:, 0] == 0.0)
    assert np.std(draws[:, 1]) > 0.5


def test_sampler_spec_validation():
    model = DensityModel.iid_normal(3)
    with pytest.raises(ValueError):
        SamplerSpec(model, 2, 0, 1000, 1)
    with pytest.raises(ValueError):
        SamplerSpec(model, 3, -1, 1000, 1)
    with pytest.raises(ValueError):
        SamplerSpec(model, 3, 2**64, 1000, 1)
    with pytest.raises(ValueError):
        SamplerSpec("not-a-model", 3, 0, 1000, 1)
    with pytest.raises(ValueError):
        SamplerSpec(model, 3, 0, 0, 1)
    with pytest.raises(ValueError):
        StatisticSpec(1.0, "sum")
    with pytest.raises(ValueError):
        StatisticSpec(2.0, "median")


def test_estimate_tail_threshold_epsilon_exclusive():
    sampler = SamplerSpec(DensityModel.iid_normal(3), 3, 1, 1000, 1)
    stat = StatisticSpec(2.0, "sum")
    with pytest.raises(ValueError):
        estimate_tail(sampler, stat)
    with pytest.raises(ValueError):
        estimate_tail(sampler, stat, threshold=1.0, epsilon=0.1)
    with pytest.raises(ValueError):
        estimate_tail(sampler, stat, epsilon=2.0)
    with pytest.raises(ValueError):
        estimate_tail(
            SamplerSpec(DensityModel.iid_normal(3), 3, 1, 999, 1), stat, epsilon=0.3
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


def test_spec_hash_sensitivity():
    model = DensityModel.iid_normal(3)
    a = spec_hash(SamplerSpec(model, 3, 1, 1000, 1), StatisticSpec(2.0, "sum"), 1.0)
    b = spec_hash(SamplerSpec(model, 3, 1, 1000, 1), StatisticSpec(2.0, "sum"), 1.0)
    assert a == b
    c = spec_hash(SamplerSpec(model, 3, 2, 1000, 1), StatisticSpec(2.0, "sum"), 1.0)
    d = spec_hash(SamplerSpec(model, 3, 1, 1000, 1), StatisticSpec(2.0, "sum"), 1.1)
    assert len({a, c, d}) == 3
    # worker count is an execution detail, not part of the experiment identity
    e = spec_hash(SamplerSpec(model, 3, 1, 1000, 8), StatisticSpec(2.0, "sum"), 1.0)
    assert e == a


def test_estimate_payload_round_trip():
    sampler = SamplerSpec(DensityModel.iid_normal(3), 3, 3, 10_000, 1)
    est = estimate_tail(sampler, StatisticSpec(2.0, "sum"), epsilon=0.3)
    payload = est.to_payload()
    for key in ("hits", "trials", "p_hat", "ci_low", "ci_high", "seed"):
        assert key in payload
    assert payload["trials"] == 10_000
    assert payload["p_hat"] == pytest.approx(payload["hits"] / payload["trials"])
    assert est.covers(est.p_hat)


def test_strictly_positive_model_collapses_max_variants():
    sampler = SamplerSpec(DensityModel.iid_folded_normal(3), 3, 21, 100_000, 1)
    cmp = compare_max_vs_sum(sampler, 0.1)
    assert cmp.all_coincide
    assert cmp.coincidence_rate == 1.0
    assert cmp.max_without_sum == 0
    assert cmp.ratio == pytest.approx(1.0, abs=1e-15)


def test_comparison_window_warning():
    sampler = SamplerSpec(DensityModel.iid_normal(3), 3, 21, CHUNK_TRIALS, 1)
    inside = compare_max_vs_sum(sampler, 0.9 * 0.5 / math.sqrt(2.0))
    assert not any("window" in w for w in inside.warnings)
    outside = compare_max_vs_sum(sampler, 1.1 * 0.5 / math.sqrt(2.0))
    assert any("window" in w for w in outside.warnings)


def test_max_counts_dominate_sum_counts():
    sampler = SamplerSpec(DensityModel.iid_normal(4), 4, 33, 200_000, 2)
    cmp = compare_max_vs_sum(sampler, 0.2)
    assert cmp.max_zn_estimate.hits >= cmp.sum_estimate.hits
    assert cmp.max_zk_estimate.hits >= cmp.max_zn_estimate.hits
    assert cmp.trials == 200_000


def test_coverage_meta():
    # Wilson CI must cover the exact value in at least 93 of 100 seeded runs
    oracle = sphere_tail_exact(3, math.sqrt(3.0) - 0.3).value
    model = DensityModel.iid_normal(3)
    covered = 0
    for seed in range(100):
        sampler = SamplerSpec(model, 3, seed, 100_000, 1)
        est = estimate_tail(sampler, StatisticSpec(2.0, "sum"), epsilon=0.3)
        covered += est.covers(oracle)
    assert covered >= 93


@pytest.mark.parametrize("n, eps", [(3, 0.1), (9, 0.4)])
def test_comparison_counts_equal_separate_estimates(n, eps):
    sampler = SamplerSpec(DensityModel.iid_normal(n), n, 5, 2 * CHUNK_TRIALS + 777, 2)
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
