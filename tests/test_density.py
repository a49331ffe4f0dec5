"""Density models, radial profiles, and the model spec grammar."""

import math

import numpy as np
import pytest
from scipy import integrate

import sntail.density as density
from sntail.density import (
    DISCRETE_MODELS,
    DensityModel,
    DiscreteModel,
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

    def widened(model, probe_vs, variants):
        # the one extent, outward on both half-lines, never into the support
        return 2.0 * original(model, probe_vs, variants)

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
        assert parse_model(name, 3) == DiscreteModel(3, name)


def test_parse_model_rejects_bad_specs():
    with pytest.raises(ValueError):
        parse_model("iid-laplace", 3)
    with pytest.raises(ValueError):
        parse_model("iid-student-t", 3)
    with pytest.raises(ValueError):
        parse_model("gaussian:cov=1 0 0", 2)
    with pytest.raises(ValueError):
        parse_model("rademacher:p=0.4", 3)
    with pytest.raises(ValueError, match="n must be >= 2"):
        parse_model("rademacher", 1)
    with pytest.raises(ValueError, match="unknown discrete model"):
        DiscreteModel(3, "not-a-model")
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
        if model.closed_form_profiles:
            # every normal law reads its profiles in closed form:
            # test_centred_normal_profiles_match_the_z_plan and
            # test_normal_profiles_match_quadrature_along_each_ray check those
            continue
        plan = density.build_z_plan(model, vs[:4])
        for variant in density.PROFILE_VARIANTS:
            got = density.profile_batch(model, vs, variant, plan)
            if variant == "paper" and model.sign_symmetric:
                # the plan's halves are mirrors and f(-x) = f(x): one half twice
                np.testing.assert_array_equal(plan.neg_nodes, -plan.pos_nodes[::-1])
                np.testing.assert_array_equal(plan.neg_weights, plan.pos_weights[::-1])
                expect = model.pdf(plan.pos_nodes[None, :, None] * rays[:, None, :])
                _assert_kernel_matches(got, 2.0 * (expect @ plan.pos_weights), exact)
                continue
            if variant == "paper":
                nodes = np.concatenate((plan.neg_nodes, plan.pos_nodes))
                weights = np.concatenate((plan.neg_weights, plan.pos_weights))
            else:
                nodes = plan.pos_nodes
                weights = plan.pos_weights * plan.pos_nodes ** (n - 1)
            expect = model.pdf(nodes[None, :, None] * rays[:, None, :]) @ weights
            _assert_kernel_matches(got, expect, exact)


def _centred_normal_models(n: int) -> list[DensityModel]:
    models = [
        DensityModel.iid_normal(n, sigma=1.7),
        DensityModel.gaussian(np.zeros(n), np.eye(n)),
        DensityModel.gaussian(np.zeros(n), 0.7 * np.eye(n) + 0.3 * np.ones((n, n))),
    ]
    # _kernel_models' signed covariance, positive definite up to n = 10
    if n <= 10:
        models += [m for m, _ in _kernel_models(n) if m.kind == "gaussian" and m.sign_symmetric]
    return models


@pytest.mark.parametrize("n", [2, 3, 4, 10, 40])
def test_centred_normal_profiles_match_the_z_plan(n, monkeypatch):
    # The closed form against the z-plan integrator, run on a user twin of
    # the same density, on a plan certified at these very points.
    rng = np.random.default_rng(600 + n)
    vs = 1.0 + 0.4 * rng.standard_normal((12, n - 1))
    models = _centred_normal_models(n)
    assert len(models) == (4 if n <= 10 else 3)
    for model in models:
        _, _, m, z0 = model.ray_gaussian(density._rays(model, vs))
        assert np.isscalar(m) and m == 0.0 and z0 is None
        twin = DensityModel.user(n, model.pdf)
        for variant in ("paper", "weighted", "mirror"):
            plan = density.build_z_plan(twin, vs, (variant,))
            expect = density.profile_batch(twin, vs, variant, plan)
            with monkeypatch.context() as patch:
                # no density is evaluated at the plan's nodes
                patch.delattr(DensityModel, "ray_pdf")
                got = density.profile_batch(model, vs, variant, plan)
            np.testing.assert_allclose(got, expect, rtol=density.Z_PLAN_RTOL, atol=0.0)


@pytest.mark.parametrize("n, shift, log_h", [
    (200, 1.0, math.log(36868.40127831016)),
    (1000, 0.1, -631.1566586336496023504),
    (5000, 1.0, 318.2047425573831556956),
])
def test_folded_weighted_profile_at_large_n(n, shift, log_h):
    # log of the weighted profile at the all-ones ray by a 50-digit
    # quadrature.  R_k grows
    # by about 10 a step at shift 0.1 and 1.6 at shift 1, so J_k / m^k
    # passes the doubles at n = 1000 and 5000 without its rescaling
    model = DensityModel.iid_folded_normal(n, shift)
    got = h_profile(model, RadialProfileQuery(np.ones(n - 1), "weighted"))
    assert math.log(got) == pytest.approx(log_h, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("n", [115, 200])
@pytest.mark.parametrize("mu", [0.3, -0.3])
def test_shifted_normal_profiles_at_the_all_ones_ray_past_n_100(n, mu):
    # log f(z 1) = -n (z - mu)^2 / 2 - n log sqrt(2 pi): each profile is a
    # log-scaled quadrature of one Gaussian moment, where the z-plan's scan
    # of z^(n-1) f once overflowed
    model = DensityModel.iid_normal(n, mu=mu)
    v, log_norm = np.ones(n - 1), -n * 0.5 * math.log(2.0 * math.pi)
    got = h_profile(model, RadialProfileQuery(v, "weighted"))
    assert math.log(got) == pytest.approx(log_norm + _log_moment_by_quad(n, mu, n - 1),
                                          rel=0.0, abs=1e-10)
    got = weighted_profile_mirror(model, v)
    assert math.log(got) == pytest.approx(log_norm + _log_moment_by_quad(n, -mu, n - 1),
                                          rel=0.0, abs=1e-10)
    got = h_profile(model, RadialProfileQuery(v, "paper"))
    assert math.log(got) == pytest.approx(log_norm + 0.5 * math.log(2.0 * math.pi / n),
                                          rel=0.0, abs=1e-12)


def _spd(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return a @ a.T / n + 0.5 * np.eye(n)


@pytest.mark.parametrize("n", [2, 3, 10, 300])
def test_centred_normals_build_the_empty_plan(n, monkeypatch):
    # no support scan and no node check: no density is evaluated at all,
    # neither for the plan nor for the profiles read on it; the folded
    # normal's closed form needs no plan either
    def refuse(self, rays, z):
        raise AssertionError("ray_pdf called")

    monkeypatch.setattr(DensityModel, "ray_pdf", refuse)
    rng = np.random.default_rng(700 + n)
    vs = 1.0 + 0.3 * rng.standard_normal((5, n - 1))
    models = [DensityModel.iid_normal(n), DensityModel.iid_normal(n, sigma=1.7),
              DensityModel.gaussian(np.zeros(n), _spd(rng, n))]
    for model in models + [DensityModel.iid_folded_normal(n, shift) for shift in (1.0, 0.4)]:
        assert model.closed_form_profiles
        assert model.centred_normal is (model.kind != "iid-folded-normal")
        for variants in (("paper",), ("weighted",), ("mirror",), density.PROFILE_VARIANTS):
            plan = density.build_z_plan(model, vs, variants)
            for arr in (plan.pos_nodes, plan.pos_weights, plan.neg_nodes, plan.neg_weights):
                assert arr.shape == (0,)
            for variant in variants:
                assert np.isfinite(density.profile_batch(model, vs, variant, plan)).all()
    student = DensityModel.iid_student_t(3, nu=5.0)
    assert not student.closed_form_profiles
    with pytest.raises(AssertionError, match="ray_pdf called"):
        density.build_z_plan(student, np.ones(2))


@pytest.mark.parametrize("n", [2, 3, 10, 300])
def test_shifted_normals_build_the_empty_plan_and_evaluate_no_density(n, monkeypatch):
    # a mean moves the closed form's centre along each ray, not its route:
    # neither the plan nor the profiles read the density anywhere
    def refuse(self, *args):
        raise AssertionError("density evaluated")

    monkeypatch.setattr(DensityModel, "ray_pdf", refuse)
    monkeypatch.setattr(DensityModel, "pdf", refuse)
    rng = np.random.default_rng(750 + n)
    vs = 1.0 + 0.3 * rng.standard_normal((5, n - 1))
    for model in (DensityModel.iid_normal(n, mu=0.3), DensityModel.iid_normal(n, mu=-0.3, sigma=2.0),
                  DensityModel.gaussian(np.linspace(0.2, -0.1, n), _spd(rng, n))):
        assert model.closed_form_profiles and not model.centred_normal
        for variants in (("paper",), ("weighted",), ("mirror",), density.PROFILE_VARIANTS):
            plan = density.build_z_plan(model, vs, variants)
            for arr in (plan.pos_nodes, plan.pos_weights, plan.neg_nodes, plan.neg_weights):
                assert arr.shape == (0,)
            for variant in variants:
                got = density.profile_batch(model, vs, variant, plan)
                assert np.isfinite(got).all() and (got > 0.0).all()


@pytest.mark.parametrize("n", [2, 3, 4, 10])
def test_folded_profiles_match_quadrature_along_each_ray(n):
    # The closed form against scipy's adaptive quadrature of `pdf` along
    # each ray, from its support edge z0 = shift / min w to where the
    # integrand is below e^-800 of its peak.
    rng = np.random.default_rng(800 + n)
    vs = 1.0 + 0.3 * rng.standard_normal((12, n - 1))
    vs[0, -1] = -0.5  # a ray that misses the support
    vs[1, 0] = 0.0  # a zero coordinate stays below the shift: a miss too
    for shift in (1.0, 2.5):
        model = DensityModel.iid_folded_normal(n, shift)
        plan = density.build_z_plan(model, vs)
        assert density.profile_batch(model, vs, "mirror", plan).tolist() == [0.0] * 12
        for variant, power in (("paper", 0), ("weighted", n - 1)):
            got = density.profile_batch(model, vs, variant, plan)
            assert got[0] == got[1] == 0.0
            for v, value in zip(vs[2:], got[2:]):
                w = np.concatenate(([1.0], v))
                edge = shift / w.min()
                top = edge + (40.0 + math.sqrt(n)) / math.sqrt(w @ w)
                expect, _ = integrate.quad(
                    lambda z: z**power * model.pdf(z * w), edge, top,
                    epsabs=0.0, epsrel=1e-13, limit=200,
                )
                assert value == pytest.approx(expect, rel=1e-12, abs=0.0)


def _shifted_normal_models(n: int) -> list[DensityModel]:
    cov = 0.7 * np.eye(n) + 0.3 * np.ones((n, n))
    return [
        DensityModel.iid_normal(n, mu=0.3),
        DensityModel.iid_normal(n, mu=-0.3),
        DensityModel.iid_normal(n, mu=0.3, sigma=2.0),
        DensityModel.iid_normal(n, mu=-0.3, sigma=2.0),
        DensityModel.gaussian(np.resize([0.2, -0.1, 0.1], n), cov),
    ]


@pytest.mark.parametrize("n", [2, 3, 4, 10])
def test_normal_profiles_match_quadrature_along_each_ray(n):
    # The closed forms of the shifted normals against scipy's adaptive
    # quadrature of `pdf` along each ray, in every variant: the weighted
    # profile of a ray whose centre m lies behind the origin reads a
    # Gaussian tail moment, and its mirror the moment at -m.
    rng = np.random.default_rng(850 + n)
    vs = np.vstack((1.0 + 0.4 * rng.standard_normal((5, n - 1)), -np.ones((1, n - 1))))
    for model in _shifted_normal_models(n):
        plan = density.build_z_plan(model, vs)
        for variant, lo, hi in (("paper", -np.inf, np.inf), ("weighted", 0.0, np.inf),
                                ("mirror", -np.inf, 0.0)):
            power = 0 if variant == "paper" else n - 1
            got = density.profile_batch(model, vs, variant, plan)
            for v, value in zip(vs, got):
                w = np.concatenate(([1.0], v))
                expect, _ = integrate.quad(
                    lambda z: abs(z) ** power * float(model.pdf(z * w)), lo, hi,
                    epsabs=0.0, epsrel=1e-13, limit=500,
                )
                assert value == pytest.approx(expect, rel=1e-12, abs=0.0)


def _log_moment_by_quad(a: float, m: float, k: int) -> float:
    """log of the integral over z > 0 of z^k exp(-a (z - m)^2 / 2), by
    scipy's quad of the integrand over its value at the peak z*, on a
    window of 60 widths about z*."""
    peak = 0.5 * (m + math.sqrt(m * m + 4.0 * k / a)) if k else max(m, 0.0)

    def g(z: float) -> float:
        return (k * math.log(z) if k else 0.0) - 0.5 * a * (z - m) ** 2

    if peak > 0.0:
        width = 1.0 / math.sqrt(a + k / peak**2)
    else:  # k = 0 and m <= 0: the integrand falls from z = 0 at rate a |m| at least
        width = 1.0 / max(math.sqrt(a), -a * m)
    lo, hi = max(0.0, peak - 60.0 * width), peak + 60.0 * (width + 1.0 / math.sqrt(a))
    value, _ = integrate.quad(lambda z: math.exp(g(z) - g(peak)) if z > 0.0 else 0.0,
                              lo, hi, points=[peak] if lo < peak < hi else None,
                              epsabs=0.0, epsrel=1e-13, limit=500)
    return g(peak) + math.log(value)


@pytest.mark.parametrize("a, m", [(1.0, 0.7), (3.3, -0.1), (0.5, -1.0), (2.0, -4.0), (1.0, -30.0)])
def test_log_moment_matches_the_exact_first_moments(a, m):
    # J_0 = sqrt(pi / 2a) erfc(-m sqrt(a/2)), J_1 = m J_0 + e^(-a m^2/2) / a
    # and J_2 = m J_1 + J_0 / a from math.erfc.  J_1 and J_2 cancel by about
    # a m^2 where m < 0, so they are checked up to m sqrt a = -5.7; at
    # m sqrt a = -30, J_0 alone, which Miller's backward run gives at k = 0
    # (a 3-step start was off by 8.9e-12 there).  Near m = 0-, at
    # (3.3, -0.1, 2), the backward ratios alone were off by 9.7e-6.
    j0 = math.sqrt(0.5 * math.pi / a) * math.erfc(-m * math.sqrt(0.5 * a))
    j1 = m * j0 + math.exp(-0.5 * a * m * m) / a
    j2 = m * j1 + j0 / a
    exact = (j0, j1, j2) if m * math.sqrt(a) > -6.0 else (j0,)
    for k, value in enumerate(exact):
        got = density._log_moment(np.array([a]), np.array([m]), np.zeros(1), k)[0]
        assert got == pytest.approx(math.log(value), rel=1e-15, abs=1e-13)


@pytest.mark.parametrize("k", [0, 1, 2, 9, 99, 999])
def test_log_moment_matches_quadrature_on_both_sides_of_its_switch(k):
    # the forward recurrence runs where m sqrt(a (k + 1)) > -5, Miller's
    # backward ratios below; each is checked next to the switch and far
    # from it, in one call with the regimes mixed
    a = np.array([0.3, 3.3, 3.3, 20.0, 1.0, 1.0, 4.0, 0.7])
    scale = np.array([2.0, -0.1, -0.99, -1.01, -2.0, -10.0, -40.0, 0.0]) * 5.0
    m = scale / np.sqrt(a * (k + 1))
    got = density._log_moment(a, m, np.zeros(a.size), k)
    for log_j, ai, mi in zip(got, a, m):
        assert log_j == pytest.approx(_log_moment_by_quad(ai, mi, k), rel=0.0, abs=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4, 10])
def test_ray_gaussian_of_a_zero_mean_is_the_centred_quadratic_bit_for_bit(n):
    # a zero mean takes the centred route: log_c is the log normalizer,
    # m the scalar 0, and a = |L^-1 r|^2 from one product per chunk
    rng = np.random.default_rng(900 + n)
    model = DensityModel.gaussian(np.zeros(n), _spd(rng, n))
    rays = np.concatenate((np.ones((17, 1)), rng.standard_normal((17, n - 1))), axis=1)
    y = model._chol_inv @ rays.T
    log_c, a, m, z0 = model.ray_gaussian(rays)
    assert log_c == model._gaussian_log_norm and np.isscalar(m) and m == 0.0 and z0 is None
    assert np.array_equal(a, np.sum(y * y, axis=0))
    iid = DensityModel.iid_normal(n, sigma=1.7)
    assert np.array_equal(iid.ray_gaussian(rays)[1], np.sum(rays * rays, axis=1) / 1.7**2)


def test_ray_gaussian_is_none_for_student_t_and_user():
    rays = density._rays(DensityModel.iid_normal(3), np.ones((2, 2)))
    for model in (DensityModel.iid_student_t(3, nu=5.0),
                  DensityModel.user(3, DensityModel.iid_normal(3).pdf)):
        assert not model.closed_form_profiles
        assert model.ray_gaussian(rays) is None
    # a mean of 1e-300 is not centred: m is a per-ray array, however small
    for model in (DensityModel.iid_normal(3, mu=0.3), DensityModel.iid_folded_normal(3),
                  DensityModel.gaussian(np.array([0.0, 0.0, 1e-300]), np.eye(3))):
        assert not model.centred_normal
        _, _, m, z0 = model.ray_gaussian(rays)
        assert m.shape == (2,) and (z0 is None) is (model.kind != "iid-folded-normal")


def test_ray_pdf_rejects_bad_rays():
    model = DensityModel.iid_normal(3)
    with pytest.raises(ValueError):
        model.ray_pdf(np.array([[1.0, 1.0]]), np.ones(4))
    with pytest.raises(ValueError):
        model.ray_pdf(np.array([[2.0, 1.0, 1.0]]), np.ones(4))
    with pytest.raises(ValueError):
        model.ray_pdf(np.ones((1, 3)), np.ones((2, 2)))


@pytest.mark.parametrize("n", range(2, 10))
def test_student_t_ray_pdf_is_pdf_bit_for_bit(n):
    rng = np.random.default_rng(300 + n)
    model = DensityModel.iid_student_t(n, nu=5.0)
    rays = np.concatenate((np.ones((29, 1)), rng.standard_normal((29, n - 1))), axis=1)
    z = np.concatenate((-np.geomspace(1e6, 1e-3, 30), [0.0], np.geomspace(1e-3, 1e6, 30)))
    expect = model.pdf(z[None, :, None] * rays[:, None, :])
    np.testing.assert_array_equal(model.ray_pdf(rays, z), expect)
    per_ray = 3.0 * rng.standard_normal((29, 17))
    expect = model.pdf(per_ray[..., None] * rays[:, None, :])
    np.testing.assert_array_equal(model.ray_pdf(rays, per_ray), expect)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="the reference needs an extended-precision long double",
)
@pytest.mark.parametrize("n", [2, 3, 9, 200])
def test_student_t_product_form_matches_a_log1p_sum(n):
    # The reference sums the coordinate log-densities with log1p in long
    # double: a float64 sum alone is off by |log f| ulps near underflow.
    nu = 5.0
    model = DensityModel.iid_student_t(n, nu=nu)
    rng = np.random.default_rng(400 + n)
    rays = np.concatenate((np.ones((23, 1)), rng.standard_normal((23, n - 1))), axis=1)
    z = np.concatenate((-np.geomspace(1e7, 1e-3, 40), [0.0], np.geomspace(1e-3, 1e7, 40)))
    got = model.ray_pdf(rays, z)
    x = (z[None, :, None] * rays[:, None, :]).astype(np.longdouble)
    log_c = math.lgamma(0.5 * (nu + 1.0)) - math.lgamma(0.5 * nu) - 0.5 * math.log(nu * math.pi)
    log_f = n * np.longdouble(log_c) - np.longdouble(0.5 * (nu + 1.0)) * np.log1p(
        x * x / np.longdouble(nu)
    ).sum(axis=-1)
    expect = np.exp(log_f).astype(float)
    normal = expect >= np.finfo(float).tiny
    assert normal.any() and not np.isnan(got).any()
    np.testing.assert_allclose(got[normal], expect[normal], rtol=1e-13, atol=0.0)
    assert np.all(got[~normal] < np.finfo(float).tiny)
    # z = 1e7 along every ray: the product overflows at n = 200, and f is 0
    with np.errstate(over="ignore"):
        overflowed = np.prod(1.0 + x[:, -1, :].astype(float) ** 2 / nu, axis=-1) == np.inf
    assert overflowed.any() == (n == 200)
    assert np.all(got[:, -1][overflowed] == 0.0)


_EQUICORRELATED_3 = np.array([[1.0, 0.3, 0.3], [0.3, 1.0, 0.3], [0.3, 0.3, 1.0]])
_SIGN_SYMMETRIC = [
    DensityModel.iid_normal(3),
    DensityModel.iid_normal(4, sigma=1.7),
    DensityModel.iid_student_t(3, nu=5.0),
    DensityModel.iid_student_t(2, nu=2.5),
    DensityModel.gaussian(np.zeros(3), _EQUICORRELATED_3),
]


_VARIANT_SETS = [("weighted",), ("mirror",), ("paper",), ("paper", "weighted")]


@pytest.mark.parametrize("model", _SIGN_SYMMETRIC, ids=lambda m: f"{m.kind}-n{m.n}")
def test_sign_symmetric_plans_are_exact_mirrors(model):
    # Every plan is symmetric about z = 0 by construction, whichever
    # variants it serves: for student-t, and for a `user` density (the twin
    # of each law here), which claims no symmetry.
    assert model.sign_symmetric
    rng = np.random.default_rng(500 + model.n)
    vs = 1.0 + 0.3 * rng.standard_normal((9, model.n - 1))
    twin = DensityModel.user(model.n, model.pdf)
    if model.centred_normal:
        # closed-form profiles: every plan is the empty one
        for variants in _VARIANT_SETS:
            plan = density.build_z_plan(model, vs, variants)
            assert plan.pos_nodes.size == plan.neg_nodes.size == 0
    rays = density._rays(model, vs)
    for quadrature in ([twin] if model.centred_normal else [model, twin]):
        for variants in _VARIANT_SETS:
            plan = density.build_z_plan(quadrature, vs, variants)
            assert plan.pos_nodes.size > 0
            np.testing.assert_array_equal(plan.neg_nodes, -plan.pos_nodes[::-1])
            np.testing.assert_array_equal(plan.neg_weights, plan.pos_weights[::-1])
            if quadrature is model:
                # f(-x) = f(x) bit for bit at the mirrored nodes
                np.testing.assert_array_equal(
                    model.ray_pdf(rays, plan.neg_nodes),
                    model.ray_pdf(rays, plan.pos_nodes)[:, ::-1],
                )


# The unequal-variance covariance of the golden `bounds-n3-gauss-unequal` run.
_UNEQUAL_3 = np.array([[1.0, 0.2, 0.0], [0.2, 2.0, 0.1], [0.0, 0.1, 0.5]])
_ULP_OFF = _EQUICORRELATED_3.copy()
_ULP_OFF[0, 2] = _ULP_OFF[2, 0] = np.nextafter(0.3, 1.0)


@pytest.mark.parametrize("model, exchangeable", [
    (DensityModel.iid_normal(3, mu=0.3, sigma=1.7), True),
    (DensityModel.iid_student_t(4, nu=5.0), True),
    (DensityModel.iid_folded_normal(3), True),
    (DensityModel.gaussian(np.zeros(3), np.eye(3)), True),
    (DensityModel.gaussian(np.full(3, 0.2), _EQUICORRELATED_3), True),
    (DensityModel.gaussian(np.zeros(3), _UNEQUAL_3), False),
    (DensityModel.gaussian(np.array([0.2, -0.1, 0.1]), _EQUICORRELATED_3), False),
    (DensityModel.gaussian(np.zeros(3), _ULP_OFF), False),
    (DensityModel.user(3, DensityModel.iid_normal(3).pdf), False),
], ids=["iid-normal", "iid-student-t", "iid-folded-normal", "identity", "equicorrelated",
        "unequal", "mean-not-constant", "one-ulp-off", "user"])
def test_exchangeable_is_decided_exactly(model, exchangeable):
    assert model.exchangeable is exchangeable


def test_paper_profile_sums_both_halves_without_sign_symmetry():
    # symmetric, but a user density does not declare it: both halves count
    model = DensityModel.user(2, lambda x: np.exp(-0.5 * np.sum(x * x, axis=-1)) / (2.0 * math.pi))
    vs = np.array([[1.0], [0.5]])
    plan = density.build_z_plan(model, vs, ("paper",))
    assert not model.sign_symmetric
    np.testing.assert_array_equal(plan.neg_nodes, -plan.pos_nodes[::-1])
    rays = density._rays(model, vs)
    nodes = np.concatenate((plan.neg_nodes, plan.pos_nodes))
    weights = np.concatenate((plan.neg_weights, plan.pos_weights))
    np.testing.assert_array_equal(
        density.profile_batch(model, vs, "paper", plan), model.ray_pdf(rays, nodes) @ weights
    )


@pytest.mark.parametrize("v", [1e5, -1e5, 1e6, -1e6])
def test_paper_profiles_of_steep_rays(v):
    # f(z, z v) is live on the support scan's grid at z = 0 alone: a span
    # of one node, which the scan resolves on its finer grids
    model = DensityModel.iid_normal(2)
    got = h_profile(model, RadialProfileQuery(np.array([v]), "paper"))
    assert got == pytest.approx(1.0 / math.sqrt(2.0 * math.pi * (1.0 + v * v)), rel=1e-12, abs=0.0)


def _ring_probes(radius: float) -> np.ndarray:
    theta = np.linspace(0.0, 2.0 * math.pi, 9)[:-1]
    ring = 1.0 + radius * np.stack((np.cos(theta), np.sin(theta)), axis=1)
    return np.vstack((np.ones((1, 2)), ring))


def test_z_plan_sized_by_its_check_resolves_unprobed_rays():
    # iid normal profiles have closed forms in |w|, w = (1, v):
    # paper (2 pi)^(-(n-1)/2) / |w|, weighted (2 pi)^(-n/2) 2^(n/2-1) Gamma(n/2) / |w|^n.
    # The `user` twin of the same law takes the quadrature path, so its plan
    # is sized on the probes alone and must serve the 60 rays it never saw.
    n = 3
    rng = np.random.default_rng(5)
    dirs = rng.standard_normal((60, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    vs = 1.0 + 0.3 * rng.uniform(0.0, 1.0, (60, 1)) * dirs
    norm = np.sqrt(1.0 + np.sum(vs * vs, axis=1))
    paper = (2.0 * math.pi) ** (-(n - 1) / 2.0) / norm
    weighted = (2.0 * math.pi) ** (-n / 2.0) * 2.0 ** (n / 2.0 - 1.0) * math.gamma(n / 2.0) / norm**n
    normal = DensityModel.iid_normal(n)
    for model in (normal, DensityModel.user(n, normal.pdf)):
        plan = density.build_z_plan(model, _ring_probes(0.3))
        np.testing.assert_allclose(
            density.profile_batch(model, vs, "paper", plan), paper, rtol=1e-13
        )
        np.testing.assert_allclose(
            density.profile_batch(model, vs, "weighted", plan), weighted, rtol=1e-13
        )


def test_z_plan_settles_for_a_centred_normal_at_n_100():
    # The probe 1 * 1.0002 once failed the plan's check on roundoff alone
    # (relative change 1.1e-13 against 96 nodes per panel): a 100-term ray
    # sum rounds at Z_PLAN_RTOL.  A centred normal's profiles are exact; its
    # `user` twin takes the quadrature path, whose check must settle too.
    n = 100
    normal = DensityModel.iid_normal(n)
    v = np.full(n - 1, 1.0002)
    norm2 = 1.0 + float(v @ v)
    log_paper = -(n - 1) * 0.5 * math.log(2.0 * math.pi) - 0.5 * math.log(norm2)
    log_weighted = (
        -0.5 * n * math.log(2.0 * math.pi) + (0.5 * n - 1.0) * math.log(2.0)
        + math.lgamma(0.5 * n) - 0.5 * n * math.log(norm2)
    )
    for model in (normal, DensityModel.user(n, normal.pdf)):
        plan = density.build_z_plan(model, v)
        for variant, log_h in (("paper", log_paper), ("weighted", log_weighted)):
            got = density.profile_batch(model, v, variant, plan)[0]
            assert got == pytest.approx(math.exp(log_h), rel=1e-13, abs=0.0)


def test_folded_empty_plan_serves_rays_it_never_saw():
    # the folded profile jumps where z * min(1, v) crosses the shift; its
    # closed form starts every ray there, so the plan built from the probes
    # is the empty one and serves the probes and rays it never saw alike
    model = DensityModel.iid_folded_normal(3)
    probes = _ring_probes(0.3)
    plan = density.build_z_plan(model, probes)
    rng = np.random.default_rng(7)
    vs = np.vstack((probes, 1.0 + 0.3 * rng.uniform(-1.0, 1.0, (20, 2))))
    got = density.profile_batch(model, vs, "paper", plan)
    for v, value in zip(vs, got):
        assert value == pytest.approx(_folded_profile(v, "paper"), rel=1e-12)


def _folded_profile(v: np.ndarray, variant: str) -> float:
    # Closed form for the unit-shift folded normal (coordinate density
    # 2 phi(x - 1) on x >= 1).  Along w = (1, v) the joint density is
    # C exp(-a (z - m)^2 / 2), cut off below at the support edge
    # z = max(1 / w_i); the weighted variant (n = 2 only) adds a factor z.
    w = np.concatenate(([1.0], v))
    n = w.size
    a, b = float(w @ w), float(w.sum())
    m, edge = b / a, float(np.max(1.0 / w))
    scale = 2.0**n * (2.0 * math.pi) ** (-n / 2.0) * math.exp(-0.5 * (n - b * b / a))
    tail = math.sqrt(2.0 * math.pi / a) * 0.5 * math.erfc(math.sqrt(0.5 * a) * (edge - m))
    if variant == "paper":
        return scale * tail
    assert n == 2
    return scale * (m * tail + math.exp(-0.5 * a * (edge - m) ** 2) / a)


def test_h_profile_of_the_folded_normal_matches_its_edge_integral():
    # h_profile reads the closed form, which integrates each ray from its
    # support edge; the reference takes the edge as max(1 / w_i) instead
    # of shift / min w, and its weighted profile from the n = 2 moment
    model = DensityModel.iid_folded_normal(2)
    for t in (0.55, 0.8, 1.0, 1.3, 2.0):
        for variant in density.PROFILE_VARIANTS:
            v = np.array([t])
            got = h_profile(model, RadialProfileQuery(v, variant))
            assert got == pytest.approx(_folded_profile(v, variant), rel=1e-12)
    v = np.array([0.9, 1.2])
    got = h_profile(DensityModel.iid_folded_normal(3), RadialProfileQuery(v, "paper"))
    assert got == pytest.approx(_folded_profile(v, "paper"), rel=1e-12)


def _iid_normal_profiles(n: int, v: np.ndarray) -> tuple[float, float]:
    """Paper and weighted profiles of the standard iid normal, in closed form.

    Along w = (1, v) the density is (2 pi)^(-n/2) exp(-z^2 |w|^2 / 2), so the
    paper profile is (2 pi)^(-(n-1)/2) / |w| and the weighted one (and its
    mirror) is (2 pi)^(-n/2) 2^(n/2-1) Gamma(n/2) / |w|^n.
    """
    norm = math.sqrt(1.0 + float(v @ v))
    paper = (2.0 * math.pi) ** (-(n - 1) / 2.0) / norm
    weighted = math.exp(
        -0.5 * n * math.log(2.0 * math.pi) + (0.5 * n - 1.0) * math.log(2.0)
        + math.lgamma(0.5 * n) - n * math.log(norm)
    )
    return paper, weighted


@pytest.mark.parametrize("n", [2, 3, 4, 10, 30, 120, 300])
def test_scalar_profiles_match_iid_normal_closed_forms(n):
    # both sides sum log terms of order n log n, whose rounding grows the
    # bound past n = 100
    rel = 1e-13 * max(1.0, n / 100.0)
    rng = np.random.default_rng(40 + n)
    model = DensityModel.iid_normal(n)
    for v in (np.ones(n - 1), np.zeros(n - 1), rng.uniform(-2.0, 2.0, n - 1),
              rng.uniform(0.1, 3.0, n - 1)):
        paper, weighted = _iid_normal_profiles(n, v)
        got = h_profile(model, RadialProfileQuery(v, "paper"))
        assert got == pytest.approx(paper, rel=rel, abs=0.0)
        got = h_profile(model, RadialProfileQuery(v, "weighted"))
        assert got == pytest.approx(weighted, rel=rel, abs=0.0)
        assert weighted_profile_mirror(model, v) == pytest.approx(weighted, rel=rel, abs=0.0)


@pytest.mark.parametrize("n", [10, 48, 100])
def test_weighted_profile_matches_its_closed_form_at_larger_n(n):
    # the one-ray plan spans z**(n-1) f, whose mass sits near
    # sqrt(n - 1) / |w|, not f alone
    model = DensityModel.iid_normal(n)
    rng = np.random.default_rng(n)
    for v in (np.ones(n - 1), rng.uniform(0.5, 1.5, n - 1), rng.uniform(-0.3, 0.3, n - 1)):
        _, weighted = _iid_normal_profiles(n, v)
        got = h_profile(model, RadialProfileQuery(v, "weighted"))
        assert got == pytest.approx(weighted, rel=1e-12, abs=0.0)
        assert weighted_profile_mirror(model, v) == pytest.approx(weighted, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [150, 300, 1000])
def test_weighted_profile_at_large_n_is_right_or_raises(n):
    # never a truncated value; at n = 1000 the profile, about e^-1422,
    # rounds to 0.0
    model = DensityModel.iid_normal(n)
    _, weighted = _iid_normal_profiles(n, np.ones(n - 1))
    try:
        got = h_profile(model, RadialProfileQuery(np.ones(n - 1), "weighted"))
    except density.QuadratureError:
        return
    assert (weighted > 0.0) == (n < 1000)
    assert got == pytest.approx(weighted, rel=1e-12, abs=0.0)


def test_scalar_profiles_match_adaptive_quadrature():
    # scipy's adaptive quad, pointwise on `pdf`, as an independent reference
    # for a heavy tail and for a gaussian whose mean makes the profile
    # asymmetric in z
    cov = 0.6 * np.eye(3) + 0.4 * np.ones((3, 3))
    models = (
        DensityModel.iid_student_t(3, nu=5.0),
        DensityModel.iid_student_t(2, nu=3.0),
        DensityModel.gaussian(np.array([0.3, -0.2, 0.5]), cov),
    )
    rng = np.random.default_rng(11)
    for model in models:
        n = model.n
        for v in (np.ones(n - 1), 1.0 + 0.5 * rng.standard_normal(n - 1)):
            w = np.concatenate(([1.0], v))

            def psi(z: float, power: int) -> float:
                return abs(z) ** power * float(model.pdf(z * w))

            def quad(lo: float, hi: float, power: int) -> float:
                return integrate.quad(psi, lo, hi, args=(power,), epsabs=0.0,
                                      epsrel=1e-13, limit=500)[0]

            got = h_profile(model, RadialProfileQuery(v, "paper"))
            assert got == pytest.approx(quad(-np.inf, np.inf, 0), rel=1e-12)
            got = h_profile(model, RadialProfileQuery(v, "weighted"))
            assert got == pytest.approx(quad(0.0, np.inf, n - 1), rel=1e-12)
            got = weighted_profile_mirror(model, v)
            assert got == pytest.approx(quad(-np.inf, 0.0, n - 1), rel=1e-12)


@pytest.mark.parametrize("v", [1e3, -1e3, 1e6, -1e6])
def test_weighted_profiles_of_steep_rays(v):
    # the mass of z f(z, z v) sits near z = 1/|v|: below the support scan's
    # first node at |v| = 1e6, where the scan goes on toward z = 0
    model = DensityModel.iid_normal(2)
    expect = 1.0 / (2.0 * math.pi * (1.0 + v * v))
    arr = np.array([v])
    got = h_profile(model, RadialProfileQuery(arr, "weighted"))
    assert got == pytest.approx(expect, rel=1e-12, abs=0.0)
    assert weighted_profile_mirror(model, arr) == pytest.approx(expect, rel=1e-12, abs=0.0)


_SCAN_CASES = [
    (DensityModel.iid_normal(3), _ring_probes(0.3)),
    # a steep ray, scanned again below the first node, beside ordinary ones
    (DensityModel.iid_normal(3), np.vstack((_ring_probes(0.3), [[1e6, 1.0]]))),
    (DensityModel.iid_student_t(3, nu=5.0), _ring_probes(0.3)),
    # a tail heavy enough that several rays are extended by doubling
    (DensityModel.iid_student_t(2, nu=2.5), np.array([[0.2], [1.0], [-0.5], [3.0]])),
    (DensityModel.gaussian(np.zeros(3), _EQUICORRELATED_3), _ring_probes(0.3)),
    (DensityModel.gaussian(np.array([0.2, -0.1, 0.1]), _EQUICORRELATED_3), _ring_probes(0.3)),
    # the last probe misses the folded normal's support
    (DensityModel.iid_folded_normal(3), np.vstack((_ring_probes(0.3), [[-0.5, 1.0]]))),
]


@pytest.mark.parametrize("variants", _VARIANT_SETS)
@pytest.mark.parametrize("model, probes", _SCAN_CASES)
def test_batched_scan_is_the_union_of_one_ray_scans(model, probes, variants):
    z_max = density._scan_support(model, probes, variants)
    assert z_max == max(density._scan_support(model, v[None, :], variants) for v in probes)
    assert z_max > 0.0


def test_batched_scan_makes_one_density_call(monkeypatch):
    calls = []
    original = DensityModel.ray_pdf

    def counted(self, rays, z):
        calls.append((rays.shape[0], z.size))
        return original(self, rays, z)

    monkeypatch.setattr(DensityModel, "ray_pdf", counted)
    model = DensityModel.gaussian(np.zeros(3), _EQUICORRELATED_3)
    rays = _ring_probes(0.3).shape[0]
    density._scan_support(model, _ring_probes(0.3), ("paper", "weighted"))
    # a user density, which claims no symmetry, reads z and -z in that call
    density._scan_support(DensityModel.user(3, model.pdf), _ring_probes(0.3), ("paper",))
    assert calls == [(rays, 161), (rays, 2 * 161)]


def test_scan_raises_where_the_integrand_does_not_decay():
    # f = 1 everywhere: every end doubles 39 times and stays live
    model = DensityModel.user(2, lambda x: np.ones(x.shape[:-1]))
    for variants in (("paper",), ("weighted",), ("mirror",)):
        with pytest.raises(density.QuadratureError, match="does not decay"):
            density.build_z_plan(model, np.ones(1), variants)


def test_gauss_legendre_rules_are_built_once():
    x, w = density._gauss_legendre(12)
    assert density._gauss_legendre(12)[0] is x
    assert not x.flags.writeable and not w.flags.writeable
    assert w.sum() == pytest.approx(2.0, rel=1e-14)


def test_scalar_profile_raises_when_no_node_count_settles(monkeypatch):
    # one node count, compared only with its double, cannot resolve the
    # narrow heavy-tailed peak to Z_PLAN_RTOL
    monkeypatch.setattr(density, "_PANEL_NODES", (2,))
    model = DensityModel.iid_student_t(3, nu=5.0)
    with pytest.raises(density.QuadratureError, match="did not settle"):
        h_profile(model, RadialProfileQuery(np.ones(2), "weighted"))
    with pytest.raises(density.QuadratureError, match="did not settle"):
        weighted_profile_mirror(model, np.ones(2))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gaussian_solve_matches_solve_triangular(n):
    # The factor is solved with numpy; scipy's triangular solve of the same
    # formulas is the reference.  Any solve's rounding reaches exp(-q/2) as a
    # relative error proportional to the quadratic form q, hence the bound
    # 1e-15 per unit of q (and 1e-15 outright where q < 1).
    from scipy.linalg import solve_triangular

    cov = 0.6 * np.eye(n) + 0.4 * np.ones((n, n))
    cov[0, n - 1] = cov[n - 1, 0] = -0.25
    rng = np.random.default_rng(300 + n)
    vs = rng.uniform(-1.5, 1.5, (40, n - 1))
    rays = np.concatenate((np.ones((40, 1)), vs), axis=1)
    z = np.linspace(-1.5, 1.5, 31)
    for mean in (np.zeros(n), np.linspace(0.3, -0.5, n)):
        model = DensityModel.gaussian(mean, cov)
        chol, log_norm = model.chol, model._gaussian_log_norm

        x = mean + rng.standard_normal((500, n)) @ chol.T
        y = solve_triangular(chol, (x - mean).T, lower=True)
        q = np.sum(y * y, axis=0)
        got, expect = model.pdf(x), np.exp(log_norm - 0.5 * q)
        assert np.all(np.abs(got / expect - 1.0) <= 1e-15 * np.maximum(q, 1.0))

        y = solve_triangular(chol, rays.T, lower=True)
        a = np.sum(y * y, axis=0)
        c = solve_triangular(chol, mean, lower=True)
        shift = (c @ y) / a
        resid = shift * y - c[:, None]
        q = a[:, None] * (z - shift[:, None]) ** 2 + np.sum(resid * resid, axis=0)[:, None]
        got, expect = model.ray_pdf(rays, z), np.exp(log_norm - 0.5 * q)
        assert np.all(np.abs(got / expect - 1.0) <= 1e-15 * np.maximum(q, 1.0))


def test_gaussian_names_a_non_positive_definite_covariance():
    with pytest.raises(ValueError, match="cov must be positive definite"):
        DensityModel.gaussian(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError, match="cov must be positive definite"):
        DensityModel.gaussian(np.zeros(3), np.ones((3, 3)))
