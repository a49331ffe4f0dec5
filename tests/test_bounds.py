"""Curvature functionals and non-asymptotic envelope certificates."""

import functools
import math

import numpy as np
import pytest

from sntail.analytic_core import AntiHessianSpec, build_anti_hessian, g_many
from sntail.bounds import (
    _line_optimize,
    curvature_functionals,
    envelope_bounds,
    unit_ball_volume,
    validate_sandwich,
)
from sntail.density import DensityModel, RadialProfileQuery, h_profile


@functools.lru_cache(maxsize=None)
def curv(n: int, beta: float) -> tuple[float, float]:
    return curvature_functionals(n, beta)


def test_curvature_positive_and_ordered():
    for n in range(2, 9):
        for beta in (1.5, 2.0, 3.0):
            lam, mu = curv(n, beta)
            assert 0.0 < lam <= mu


def test_curvature_frozen_values():
    lam2, mu2 = curv(2, 2.0)
    assert lam2 == pytest.approx(0.072572775873, rel=1e-9)
    assert mu2 == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-9)
    lam3, mu3 = curv(3, 2.0)
    assert lam3 == pytest.approx(0.042805257, rel=1e-6)
    assert mu3 == pytest.approx(0.317837245, rel=1e-6)


def test_curvature_respects_eigen_bracket():
    # the ratio's limit at the center is half the Rayleigh quotient of A
    for n in (2, 3, 4, 6):
        lam, mu = curv(n, 2.0)
        eig = np.linalg.eigvalsh(build_anti_hessian(AntiHessianSpec(n, 2.0)))
        assert lam <= 0.5 * eig[0] + 1e-12
        assert mu >= 0.5 * eig[-1] - 1e-12


def test_quadratic_envelopes_on_random_ball_points():
    rng = np.random.default_rng(20240605)
    for n in (2, 3, 5):
        for beta in (1.5, 2.0, 3.0):
            lam, mu = curv(n, beta)
            m = n - 1
            u = rng.standard_normal((10_000, m))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            r = rng.uniform(1e-6, 1.0, size=(10_000, 1)) ** (1.0 / m)
            vs = 1.0 + r * u
            drop = n ** (1.0 - 1.0 / beta) - g_many(vs, beta)
            dist2 = np.sum((vs - 1.0) ** 2, axis=1)
            assert np.all(drop >= lam * dist2 - 1e-9)
            assert np.all(drop <= mu * dist2 + 1e-9)


def test_curvature_deterministic():
    # multistart reduction is order-free: repeat calls agree exactly
    a = curvature_functionals(5, 2.0)
    b = curvature_functionals(5, 2.0)
    assert a == b


def test_certificate_record_and_scaling():
    model = DensityModel.iid_normal(2)
    lam, mu = curv(2, 2.0)
    records = []
    for eps in (0.01, 0.02, 0.05):
        cert = envelope_bounds(model, 2, eps, lam=lam, mu=mu)
        rec = cert.to_record()
        assert tuple(rec) == (
            "n", "beta", "eps", "lambda", "mu", "H", "G",
            "lower", "upper", "certified",
        )
        assert rec["lower"] <= rec["upper"]
        records.append(cert)
    # with H held fixed the upper bound is H * V_{n-1} * (eps/lam)^{(n-1)/2}
    for cert in records:
        ball = unit_ball_volume(1) * math.sqrt(cert.epsilon / cert.lam)
        assert cert.upper == pytest.approx(cert.H * ball, rel=1e-12)


def test_envelope_bounds_window_guard():
    model = DensityModel.iid_normal(2)
    lam, mu = curv(2, 2.0)
    with pytest.raises(ValueError):
        envelope_bounds(model, 2, 1.1 * lam, lam=lam, mu=mu)
    with pytest.raises(ValueError):
        envelope_bounds(model, 2, 0.0, lam=lam, mu=mu)


def test_sandwich_single_case():
    report = validate_sandwich(DensityModel.iid_normal(3), 3, 0.02)
    assert report.holds
    assert report.region_contained
    assert report.lower <= report.integral <= report.upper


def test_extremizer_points_are_recorded():
    model = DensityModel.iid_normal(2)
    cert = envelope_bounds(model, 2, 0.05)
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


def test_line_search_reports_its_calls():
    calls = []

    def fn(t: float) -> float:
        calls.append(t)
        return (t - 0.3) ** 2

    t, val, reported = _line_optimize(fn, [(-1.0, 0.0), (0.2, 1.0), (2.0, 2.0)], True)
    assert reported == len(calls) > 0
    assert t == pytest.approx(0.3, abs=1e-8) and val <= 1e-16
