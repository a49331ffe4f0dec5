"""Density models, radial profiles, and the model spec grammar."""

import math

import numpy as np
import pytest
from scipy import integrate

import sntail.density as density
from sntail.density import (
    DISCRETE_MODELS,
    DensityModel,
    RadialProfileQuery,
    h_profile,
    parse_model,
    weighted_profile_mirror,
)


def test_paper_profile_at_ones_iid_normal():
    # integral of f(z*ones) over all z has the closed form below
    for n in range(2, 7):
        model = DensityModel.iid_normal(n)
        got = h_profile(model, RadialProfileQuery(np.ones(n - 1), "paper"))
        expect = (2.0 * math.pi) ** (-(n - 1) / 2.0) / math.sqrt(n)
        assert got == pytest.approx(expect, rel=1e-9)


def test_change_of_variables_recovers_total_mass_n2():
    # integrating weighted profile plus its mirror over all directions gives 1
    model = DensityModel.iid_normal(2)

    def both(v: float) -> float:
        arr = np.array([v])
        fwd = h_profile(model, RadialProfileQuery(arr, "weighted"))
        return fwd + weighted_profile_mirror(model, arr)

    total, err = integrate.quad(both, -np.inf, np.inf, limit=200)
    assert total == pytest.approx(1.0, abs=max(1e-8, 10.0 * err))


def test_profile_invariant_under_wider_truncation(monkeypatch):
    # doubling the scanned domain (halving the effective cutoff) is a no-op
    # smooth models only: the folded density's support-edge jump adds
    # quadrature noise that has nothing to do with truncation
    cases = [
        (DensityModel.iid_normal(3), "paper"),
        (DensityModel.iid_student_t(3, nu=4.0), "weighted"),
        (
            DensityModel.gaussian(
                np.zeros(3),
                np.array([[1.0, 0.2, 0.0], [0.2, 1.0, 0.2], [0.0, 0.2, 1.0]]),
            ),
            "weighted",
        ),
    ]
    baselines = [
        h_profile(m, RadialProfileQuery(np.array([1.0, 1.0]), var))
        for m, var in cases
    ]
    original = density._scan_support

    def widened(psi, lo_sign, hi_sign):
        span = original(psi, lo_sign, hi_sign)
        if span is None:
            return None
        z_lo, z_hi, hints = span
        # outward in both directions, never into the support
        z_lo = 2.0 * z_lo if z_lo < 0.0 else 0.5 * z_lo
        z_hi = 2.0 * z_hi if z_hi > 0.0 else 0.5 * z_hi
        return z_lo, z_hi, hints

    monkeypatch.setattr(density, "_scan_support", widened)
    for (m, var), base in zip(cases, baselines):
        wide = h_profile(m, RadialProfileQuery(np.array([1.0, 1.0]), var))
        assert wide == pytest.approx(base, rel=2e-10)


def test_pdf_normalization_spot_checks():
    rng = np.random.default_rng(314159)
    models = [
        DensityModel.iid_normal(2),
        DensityModel.iid_student_t(2, nu=5.0),
        DensityModel.gaussian(
            np.zeros(2), np.array([[1.0, 0.3], [0.3, 1.0]])
        ),
    ]
    for model in models:
        # crude importance check: pdf ratio f(x)/phi(x) under normal draws
        x = rng.standard_normal((200_000, 2))
        phi = np.exp(-0.5 * np.sum(x * x, axis=1)) / (2.0 * math.pi)
        est = float(np.mean(model.pdf(x) / phi))
        assert est == pytest.approx(1.0, abs=0.02)


def test_folded_normal_support_and_positivity():
    model = DensityModel.iid_folded_normal(3, shift=1.0)
    below = np.array([[0.5, 2.0, 2.0]])
    assert model.pdf(below)[0] == 0.0
    above = np.array([[1.5, 2.0, 2.5]])
    assert model.pdf(above)[0] > 0.0
    u = np.random.default_rng(11).uniform(size=(10_000, 3))
    draws = model.draw_from_uniforms(u)
    assert np.all(draws >= 1.0)


def test_student_t_requires_heavy_tail_guard():
    with pytest.raises(ValueError):
        DensityModel.iid_student_t(3, nu=2.0)
    with pytest.raises(ValueError):
        DensityModel.iid_student_t(3, nu=1.5)
    DensityModel.iid_student_t(3, nu=2.0 + 1e-9)


def test_parse_model_families():
    m = parse_model("iid-normal", 3)
    assert m.kind == "iid-normal" and m.n == 3
    m = parse_model("iid-student-t:nu=5", 4)
    assert m.kind == "iid-student-t" and m.nu == 5.0
    m = parse_model("iid-folded-normal:shift=2", 3)
    assert m.kind == "iid-folded-normal" and m.shift == 2.0
    m = parse_model("gaussian:mean=0 0,cov=1 0.3 0.3 1", 2)
    assert m.kind == "gaussian"
    np.testing.assert_allclose(m.chol @ m.chol.T, [[1.0, 0.3], [0.3, 1.0]])
    for name in DISCRETE_MODELS:
        assert parse_model(name, 3) == name


def test_parse_model_rejects_bad_specs():
    with pytest.raises(ValueError):
        parse_model("iid-laplace", 3)
    with pytest.raises(ValueError):
        parse_model("iid-student-t", 3)
    with pytest.raises(ValueError):
        parse_model("gaussian:cov=1 0 0", 2)
    with pytest.raises(ValueError):
        parse_model("rademacher:p=0.4", 3)
    with pytest.raises(ValueError):
        parse_model("iid-normal:bogus=1", 3)


def test_gaussian_requires_valid_covariance():
    with pytest.raises(ValueError):
        DensityModel.gaussian(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError):
        DensityModel.gaussian(np.zeros(2), np.array([[1.0, 0.5], [0.4, 1.0]]))


def test_profile_vanishes_off_support():
    # direction with a negative coordinate never meets the folded support
    model = DensityModel.iid_folded_normal(2)
    got = h_profile(model, RadialProfileQuery(np.array([-1.0]), "weighted"))
    assert got == 0.0


def _kernel_models(n: int) -> list[tuple[DensityModel, bool]]:
    """Models for the ray-kernel checks, each with whether values must be exact."""
    cov = 0.6 * np.eye(n) + 0.4 * np.ones((n, n))
    cov[0, n - 1] = cov[n - 1, 0] = -0.25
    mean = np.linspace(0.3, -0.5, n)

    def user_fn(x: np.ndarray) -> np.ndarray:
        return np.exp(-0.5 * np.sum((x - 0.2) ** 2, axis=-1)) / (2.0 * math.pi) ** (n / 2)

    return [
        (DensityModel.iid_normal(n, mu=0.4, sigma=1.7), True),
        (DensityModel.iid_student_t(n, nu=5.0), True),
        (DensityModel.iid_folded_normal(n, shift=1.0), True),
        (DensityModel.gaussian(np.zeros(n), cov), False),
        (DensityModel.gaussian(mean, cov), False),
        (DensityModel.user(n, user_fn), True),
    ]


def _assert_kernel_matches(got: np.ndarray, expect: np.ndarray, exact: bool) -> None:
    assert got.shape == expect.shape
    np.testing.assert_array_equal(got == 0.0, expect == 0.0)
    if exact:
        np.testing.assert_array_equal(got, expect)
    else:
        np.testing.assert_allclose(got, expect, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ray_pdf_matches_pdf_on_materialized_points(n):
    rng = np.random.default_rng(100 + n)
    vs = 1.0 + 0.5 * rng.standard_normal((37, n - 1))
    vs[0] = -1.0  # a ray that never meets the folded support
    rays = np.concatenate((np.ones((vs.shape[0], 1)), vs), axis=1)
    # exp(-q/2) turns the rounding of q into a relative error of about
    # q/2 ulp in either route, so the nodes stop where q/2 stays below ~100
    z = np.concatenate((-np.geomspace(3.0, 1e-3, 20), [0.0], np.geomspace(1e-3, 3.0, 20)))
    for model, exact in _kernel_models(n):
        got = model.ray_pdf(rays, z)
        expect = model.pdf(z[None, :, None] * rays[:, None, :])
        _assert_kernel_matches(got, expect, exact)
        if model.kind == "iid-folded-normal":
            assert np.all(got[0][z > 0.0] == 0.0) and np.any(got > 0.0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_profile_batch_matches_pdf_on_materialized_points(n):
    rng = np.random.default_rng(200 + n)
    vs = 1.0 + 0.4 * rng.standard_normal((53, n - 1))
    rays = np.concatenate((np.ones((vs.shape[0], 1)), vs), axis=1)
    for model, exact in _kernel_models(n):
        plan = density.build_z_plan(model, vs[:4])
        for variant in density.PROFILE_VARIANTS:
            if variant == "paper":
                nodes = np.concatenate((plan.neg_nodes, plan.pos_nodes))
                weights = np.concatenate((plan.neg_weights, plan.pos_weights))
            else:
                nodes = plan.pos_nodes
                weights = plan.pos_weights * plan.pos_nodes ** (n - 1)
            expect = model.pdf(nodes[None, :, None] * rays[:, None, :]) @ weights
            got = density.profile_batch(model, vs, variant, plan)
            _assert_kernel_matches(got, expect, exact)


def test_ray_pdf_rejects_bad_rays():
    model = DensityModel.iid_normal(3)
    with pytest.raises(ValueError):
        model.ray_pdf(np.array([[1.0, 1.0]]), np.ones(4))
    with pytest.raises(ValueError):
        model.ray_pdf(np.array([[2.0, 1.0, 1.0]]), np.ones(4))
    with pytest.raises(ValueError):
        model.ray_pdf(np.ones((1, 3)), np.ones((2, 2)))
