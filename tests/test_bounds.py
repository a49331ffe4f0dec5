"""Curvature functionals and non-asymptotic envelope certificates."""

import math

import numpy as np
import pytest

import sntail.bounds as bounds
import sntail.oracles as oracles
from sntail.analytic_core import AntiHessianSpec, g_many, structured_anti_hessian
from sntail.bounds import (
    _ball_grid,
    _ball_search,
    curvature_functionals,
    envelope_bounds,
    unit_ball_volume,
    validate_sandwich,
)
from sntail.density import DensityModel, RadialProfileQuery, h_profile, profile_batch


def test_curvature_positive_and_ordered():
    for n in range(2, 9):
        lam, mu = curvature_functionals(n)
        assert 0.0 < lam <= mu


def test_curvature_frozen_values():
    lam2, mu2 = curvature_functionals(2)
    assert lam2 == pytest.approx(0.0725727758732, rel=1e-12)
    assert mu2 == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-12)
    lam3, mu3 = curvature_functionals(3)
    assert lam3 == pytest.approx(0.0428044103274, rel=1e-12)
    assert mu3 == pytest.approx(0.317837245196, rel=1e-12)


def _ratio_grid(n: int, points: int = 1201) -> np.ndarray:
    """(g(1) - g(v)) / ||v - 1||**2 on an (r, s) grid covering the unit ball.

    With d = v - 1, r = ||d|| and s = sum d_j, g = (n + s) / sqrt(Q) for
    Q = n + 2s + r**2, and the ratio is written without cancellation as
    (n r**2 - s**2) / (r**2 sqrt(Q) (sqrt(n) sqrt(Q) + n + s)).  Every (r, s)
    with 0 < r <= 1 and |s| <= r sqrt(n - 1) is some v in the ball.
    """
    r = np.linspace(0.0, 1.0, points)[1:, None]
    s = np.linspace(-1.0, 1.0, points)[None, :] * r * math.sqrt(n - 1)
    q = n + 2.0 * s + r * r
    return (n * r * r - s * s) / (r * r * np.sqrt(q) * (np.sqrt(n * q) + n + s))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 10, 100, 2000])
def test_curvature_matches_brute_force_grid(n):
    lam, mu = curvature_functionals(n)
    ratio = _ratio_grid(n)
    assert ratio.min() == pytest.approx(lam, rel=1e-9)
    assert ratio.min() >= lam * (1.0 - 1e-13)
    assert ratio.max() <= mu * (1.0 + 1e-13)
    # mu is attained at r = 1, s = -1, which the grid need not hold exactly
    assert ratio.max() == pytest.approx(mu, rel=1e-5)
    assert mu == pytest.approx(math.sqrt(n) - math.sqrt(n - 1), rel=1e-12)


def test_curvature_respects_eigen_bracket():
    # the ratio's limit at the center is half the Rayleigh quotient of A
    for n in (2, 3, 4, 6):
        lam, mu = curvature_functionals(n)
        eig = np.linalg.eigvalsh(structured_anti_hessian(AntiHessianSpec(n, 2.0)).materialize())
        assert lam <= 0.5 * eig[0] + 1e-12
        assert mu >= 0.5 * eig[-1] - 1e-12


def test_quadratic_envelopes_on_random_ball_points():
    rng = np.random.default_rng(20240605)
    for n in (2, 3, 5, 50, 1000):
        lam, mu = curvature_functionals(n)
        m = n - 1
        u = rng.standard_normal((10_000, m))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        r = rng.uniform(1e-6, 1.0, size=(10_000, 1)) ** (1.0 / m)
        vs = 1.0 + r * u
        drop = math.sqrt(n) - g_many(vs, 2.0)
        dist2 = np.sum((vs - 1.0) ** 2, axis=1)
        assert np.all(drop >= lam * dist2 - 1e-9)
        assert np.all(drop <= mu * dist2 + 1e-9)


def test_curvature_deterministic():
    a = curvature_functionals(5)
    b = curvature_functionals(5)
    assert a == b


def test_certificate_record_and_scaling():
    model = DensityModel.iid_normal(2)
    records = []
    for eps in (0.01, 0.02, 0.05):
        cert = envelope_bounds(model, eps)
        rec = cert.to_record()
        assert tuple(rec) == (
            "n", "beta", "eps", "lambda", "mu", "H", "G", "lower", "upper",
        )
        assert rec["lower"] <= rec["upper"]
        assert (rec["lambda"], rec["mu"]) == curvature_functionals(2)
        records.append(cert)
    # with H held fixed the upper bound is H * V_{n-1} * (eps/lam)^{(n-1)/2}
    for cert in records:
        ball = unit_ball_volume(1) * math.sqrt(cert.epsilon / cert.lam)
        assert cert.upper == pytest.approx(cert.H * ball, rel=1e-12)


def test_envelope_bounds_window_guard():
    model = DensityModel.iid_normal(2)
    lam, _ = curvature_functionals(2)
    with pytest.raises(ValueError):
        envelope_bounds(model, 1.1 * lam)
    with pytest.raises(ValueError):
        envelope_bounds(model, 0.0)
    with pytest.raises(ValueError, match="2 <= n <= 4"):
        envelope_bounds(DensityModel.iid_normal(5), 0.005)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_ball_grid_stays_in_its_ball(dim):
    grid = _ball_grid(dim, 0.1)
    assert grid.shape[1] == dim
    assert np.all(np.linalg.norm(grid - 1.0, axis=1) <= 0.1 * (1.0 + 1e-12))
    # the grid reaches the sphere, on the diagonals too
    for sign in (1.0, -1.0):
        target = 1.0 + sign * 0.1 / math.sqrt(dim)
        assert np.any(np.all(np.abs(grid - target) <= 1e-15, axis=1))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_ball_grid_lists_each_point_once(dim):
    grid = _ball_grid(dim, 0.1)
    # rounding to 1e-14 merges points that differ only by the sphere rule's
    # rounding, such as a dim-2 angle on the diagonal and the diagonal itself
    assert np.unique(np.round(grid, 14), axis=0).shape[0] == grid.shape[0]
    assert np.sum(np.all(grid == 1.0, axis=1)) == 1


def test_sandwich_rejects_what_the_envelope_rejects():
    # validate_sandwich leaves its input checks to envelope_bounds
    with pytest.raises(ValueError, match="2 <= n <= 4"):
        validate_sandwich(DensityModel.iid_normal(5), 0.005)
    for n in (2, 3, 4):
        lam, _ = curvature_functionals(n)
        for eps in (lam, 1.1 * lam):
            with pytest.raises(ValueError, match="lambda"):
                validate_sandwich(DensityModel.iid_normal(n), eps)
        with pytest.raises(ValueError):
            validate_sandwich(DensityModel.iid_normal(n), 0.0)


def test_sandwich_single_case():
    report = validate_sandwich(DensityModel.iid_normal(3), 0.02)
    assert report.holds
    assert report.region_contained
    assert report.lower <= report.integral <= report.upper


def test_sandwich_runs_no_root_search(monkeypatch):
    # the region integral and the containment check take the boundary in
    # closed form, so g is never evaluated
    def forbidden(*args, **kwargs):
        raise AssertionError("g evaluated: a root search ran")

    monkeypatch.setattr(oracles, "g_many", forbidden)
    for n in (2, 3, 4):
        report = validate_sandwich(DensityModel.iid_normal(n), 0.02)
        assert report.holds and report.region_contained


def test_extremizer_points_are_recorded():
    model = DensityModel.iid_normal(2)
    cert = envelope_bounds(model, 0.05)
    assert cert.h_max_point.shape == (1,)
    assert cert.h_min_point.shape == (1,)

    # the attained points must reproduce the reported extrema
    def objective(v):
        h = h_profile(model, RadialProfileQuery(v, "paper"))
        return float(np.prod(np.abs(v))) * h

    assert objective(cert.h_max_point) == pytest.approx(cert.H, rel=2e-6)
    assert objective(cert.h_min_point) == pytest.approx(cert.G, rel=2e-6)
    r_big = math.sqrt(cert.epsilon / cert.lam)
    assert np.linalg.norm(cert.h_max_point - 1.0) <= r_big * (1.0 + 1e-9)


@pytest.mark.parametrize("dim", [2, 3])
def test_ball_search_slides_along_the_sphere(dim):
    # a linear objective peaks on the sphere at 1 + R*a; from 1 + R*e_1 a
    # search that moves one coordinate at a time can only go inward
    radius = 0.1
    a = np.arange(1.0, dim + 1.0)
    a /= np.linalg.norm(a)
    start = np.ones(dim)
    start[0] += radius
    point, val, evals = _ball_search(lambda vs: (vs - 1.0) @ a, start, radius, False)
    assert val == pytest.approx(radius, rel=1e-12)
    assert np.linalg.norm(point - 1.0) <= radius * (1.0 + 1e-12)
    assert evals > 1


def test_evaluations_count_the_points_profiled(monkeypatch):
    points = []

    def counted(model, vs, variant, plan):
        points.append(np.atleast_2d(vs).shape[0])
        return profile_batch(model, vs, variant, plan)

    monkeypatch.setattr(bounds, "profile_batch", counted)
    cert = envelope_bounds(DensityModel.iid_student_t(3, 5.0), 0.01)
    assert cert.evaluations == sum(points)
    # the grid only seeds the search: 13,374 points were profiled when a
    # dense grid carried the accuracy
    assert cert.evaluations <= 2_000


_UNEQUAL = {
    2: "1 0.2 0.2 2",
    3: "1 0.2 0 0.2 2 0.1 0 0.1 0.5",
    4: "1 0.2 0 0.1 0.2 2 0.1 0 0 0.1 0.5 0.2 0.1 0 0.2 1.5",
}


def _ball_sample(rng, dim: int, radius: float, count: int) -> np.ndarray:
    """`count` points of the closed ball about 1, the first half on its sphere."""
    u = rng.standard_normal((count, dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    r = np.ones((count, 1))
    r[count // 2:, 0] = rng.uniform(size=count - count // 2) ** (1.0 / dim)
    return 1.0 + radius * r * u


def _model(kind: str, n: int) -> DensityModel:
    if kind == "unequal":
        cov = np.array(_UNEQUAL[n].split(), dtype=float).reshape(n, n)
        return DensityModel.gaussian(np.zeros(n), cov)
    if kind == "equicorrelated":
        return DensityModel.gaussian(np.zeros(n), np.full((n, n), 0.3) + 0.7 * np.eye(n))
    if kind == "student":
        return DensityModel.iid_student_t(n, 5.0)
    if kind == "folded":
        return DensityModel.iid_folded_normal(n)
    return DensityModel.iid_normal(n)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize(
    "kind", ["unequal", "folded", "student", "equicorrelated", "normal"]
)
def test_certificate_dominates_its_balls(monkeypatch, kind, n):
    # H and G must bound the objective over their whole balls, on the very
    # z-plan the search used.  The unequal gaussian and the kinked folded
    # normal take their extrema off the grid's rays; the exchangeable models
    # take theirs on the diagonal, which the seed grid must still reach.
    model = _model(kind, n)
    plans = []

    def capture(model, vs, variant, plan):
        plans.append(plan)
        return profile_batch(model, vs, variant, plan)

    monkeypatch.setattr(bounds, "profile_batch", capture)
    cert = envelope_bounds(model, 0.01)
    plan = plans[0]
    assert all(p is plan for p in plans)

    def objective(vs):
        return profile_batch(model, vs, "paper", plan) * np.prod(np.abs(vs), axis=-1)

    rng = np.random.default_rng(20261019 + n)
    r_big = math.sqrt(cert.epsilon / cert.lam)
    r_small = math.sqrt(cert.epsilon / cert.mu)
    assert np.linalg.norm(cert.h_max_point - 1.0) <= r_big * (1.0 + 1e-12)
    assert np.linalg.norm(cert.h_min_point - 1.0) <= r_small * (1.0 + 1e-12)
    assert cert.H >= objective(_ball_sample(rng, n - 1, r_big, 20_000)).max() * (1.0 - 1e-13)
    assert cert.G <= objective(_ball_sample(rng, n - 1, r_small, 20_000)).min() * (1.0 + 1e-13)


def test_envelope_bounds_on_a_support_edge():
    # the folded normal's profiles are closed form from each ray's support
    # edge, so the search runs on the empty plan with nothing to check
    model = DensityModel.iid_folded_normal(3)
    cert = envelope_bounds(model, 0.01)

    def objective(v):
        return float(np.prod(v)) * h_profile(model, RadialProfileQuery(v, "paper"))

    assert cert.G <= objective(np.ones(2)) <= cert.H
    assert cert.H >= objective(cert.h_max_point)
    assert cert.G <= objective(cert.h_min_point)
    assert 0.0 < cert.lower < cert.upper
