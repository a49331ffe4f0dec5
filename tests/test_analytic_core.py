"""Structured determinants, criterion function, and derivative checks."""

import math

import numpy as np
import pytest

import sntail.analytic_core as analytic_core
from sntail.analytic_core import (
    DET_FACTOR_LIMIT,
    AntiHessianSpec,
    StructuredMatrix,
    anti_hessian_entries,
    anti_hessian_entries_fd,
    g_many,
    log_det_anti_hessian,
    log_det_anti_hessian_factorized,
    log_det_anti_hessian_published,
    structured_anti_hessian,
)

BETAS = (1.5, 2.0, 3.0)


def test_det_eigen_matches_numeric_random_pairs():
    rng = np.random.default_rng(20240601)
    for m in range(1, 41):
        for _ in range(100 // max(1, m // 12)):
            a, b = rng.uniform(-3.0, 3.0, size=2)
            mat = StructuredMatrix(m, a, b)
            rep, simple = mat.eigenvalues()
            closed = rep ** (m - 1) * simple
            sign, log_abs = np.linalg.slogdet(mat.materialize())
            numeric = sign * math.exp(log_abs)
            scale = max(abs(closed), abs(numeric), 1e-30)
            assert abs(closed - numeric) <= 1e-10 * scale


def test_structured_eigenvalue_action():
    rng = np.random.default_rng(7)
    for m in range(2, 12):
        a, b = rng.uniform(-2.0, 2.0, size=2)
        mat = StructuredMatrix(m, a, b).materialize()
        ones = np.ones(m)
        np.testing.assert_allclose(mat @ ones, (a + (m - 1) * b) * ones, rtol=1e-13)
        diff = np.zeros(m)
        diff[0], diff[1] = 1.0, -1.0
        np.testing.assert_allclose(mat @ diff, (a - b) * diff, rtol=1e-13, atol=1e-15)


def test_anti_hessian_entries_continuous_at_beta_two():
    for n in range(2, 9):
        exact = anti_hessian_entries(AntiHessianSpec(n, 2.0))
        for db in (1e-7, -1e-7):
            near = anti_hessian_entries(AntiHessianSpec(n, 2.0 + db))
            np.testing.assert_allclose(near, exact, rtol=1e-5)


def test_anti_hessian_entry_formulas():
    # diag (beta-1)(n^{-1/beta} - n^{-1-1/beta}), off -(beta-1) n^{-1-1/beta}
    for n in range(2, 9):
        for beta in BETAS:
            diag, off = anti_hessian_entries(AntiHessianSpec(n, beta))
            expect_diag = (beta - 1.0) * (n ** (-1.0 / beta) - n ** (-1.0 - 1.0 / beta))
            expect_off = -(beta - 1.0) * n ** (-1.0 - 1.0 / beta)
            assert diag == pytest.approx(expect_diag, rel=1e-14)
            assert off == pytest.approx(expect_off, rel=1e-14)


def test_fd_hessian_matches_closed_form():
    for n in range(2, 9):
        for beta in BETAS:
            spec = AntiHessianSpec(n, beta)
            diag, off = anti_hessian_entries(spec)
            fd_diag, fd_off = anti_hessian_entries_fd(spec)
            assert fd_diag == pytest.approx(diag, rel=1e-5)
            if n == 2:
                assert fd_off is None
            else:
                assert fd_off == pytest.approx(off, rel=1e-5)


@pytest.mark.parametrize("n, points", [(2, 3), (3, 7), (2000, 7)])
def test_fd_entries_take_one_call_of_fixed_size(monkeypatch, n, points):
    # the two entries need the same seven points at every n
    shapes = []
    true_g_many = analytic_core.g_many

    def counted(vs, beta=2.0):
        shapes.append(np.shape(vs))
        return true_g_many(vs, beta)

    monkeypatch.setattr(analytic_core, "g_many", counted)
    anti_hessian_entries_fd(AntiHessianSpec(n, 2.0))
    assert shapes == [(points, n - 1)]


def test_g_maximum_on_dense_grid():
    # g peaks at the all-ones direction with value n^(1-1/beta)
    for n in (2, 3, 4):
        for beta in BETAS:
            axes = [np.linspace(0.05, 3.0, 25)] * (n - 1)
            mesh = np.meshgrid(*axes, indexing="ij")
            pts = np.stack([m.ravel() for m in mesh], axis=-1)
            vals = g_many(pts, beta)
            peak = n ** (1.0 - 1.0 / beta)
            assert np.max(vals) <= peak + 1e-12
            at_ones = float(g_many(np.ones(n - 1), beta))
            assert at_ones == pytest.approx(peak, rel=1e-14)


def test_published_determinant_diverges_from_oracle_at_n3():
    spec = AntiHessianSpec(3, 2.0)
    published = float(np.exp(log_det_anti_hessian_published(spec)))
    assert published == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert float(np.exp(log_det_anti_hessian(spec))) == pytest.approx(1.0 / 9.0, rel=1e-12)
    sign, log_abs = log_det_anti_hessian_factorized(spec)
    assert sign * math.exp(log_abs) == pytest.approx(1.0 / 9.0, rel=1e-10)


def test_published_determinant_agrees_at_n2():
    # the printed closed form only breaks once the matrix has off-diagonals
    spec = AntiHessianSpec(2, 2.0)
    assert float(np.exp(log_det_anti_hessian_published(spec))) == pytest.approx(
        float(np.exp(log_det_anti_hessian(spec))), rel=1e-12
    )


def test_log_det_is_the_eigenvalue_product():
    # against LU of the dense matrix while it can be materialized, and the
    # eigenvalues the structured matrix reports up to n = 1e12
    for beta in BETAS:
        for n in range(2, 41):
            spec = AntiHessianSpec(n, beta)
            sign, numeric = log_det_anti_hessian_factorized(spec)
            assert sign == 1.0
            assert log_det_anti_hessian(spec) == pytest.approx(numeric, rel=1e-12, abs=1e-12)
        for n in (10**3, 10**6, 10**9, 10**12):
            spec = AntiHessianSpec(n, beta)
            rep, simple = structured_anti_hessian(spec).eigenvalues()
            via_eigen = (n - 2) * math.log(rep) + math.log(simple)
            assert log_det_anti_hessian(spec) == pytest.approx(via_eigen, rel=1e-13)


def test_log_det_stays_finite_at_n_1e19():
    # there diag + (n-2)*off cancels: the eigenvalue route gave -inf at
    # beta = 2 and nan at 1.5 and 3.  The eigenvalues, in their own closed
    # forms (beta-1) n^(-1/beta), n - 2 times, and (beta-1) n^(-1-1/beta):
    n = 10**19
    for beta in BETAS:
        log_n, log_scale = math.log(n), math.log(beta - 1.0)
        expect = (n - 2) * (log_scale - log_n / beta) + log_scale - (1.0 + 1.0 / beta) * log_n
        got = log_det_anti_hessian(AntiHessianSpec(n, beta))
        assert math.isfinite(got)
        assert got == pytest.approx(expect, rel=1e-14)


def test_structured_matrix_never_materialized_above_cap():
    with pytest.raises(ValueError):
        StructuredMatrix(DET_FACTOR_LIMIT + 1, 1.0, 0.5).materialize()
    with pytest.raises(ValueError):
        log_det_anti_hessian_factorized(AntiHessianSpec(DET_FACTOR_LIMIT + 2, 2.0))

