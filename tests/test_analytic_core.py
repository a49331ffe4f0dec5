"""Structured determinants, criterion function, and hyper-dual derivatives."""

import itertools
import math

import numpy as np
import pytest

import sntail.analytic_core as analytic_core
from sntail.analytic_core import (
    DET_FACTOR_LIMIT,
    AntiHessianSpec,
    HyperDual,
    StructuredMatrix,
    anti_hessian_entries,
    anti_hessian_entries_hyperdual,
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


def test_hyperdual_hessian_matches_closed_form():
    # exact to rounding at every n: no step, no cancellation
    for n, beta in itertools.product([*range(2, 9), 10, 66, 100, 400, 1000, 2000, 10**4], BETAS):
        spec = AntiHessianSpec(n, beta)
        diag, off = anti_hessian_entries(spec)
        hd_diag, hd_off = anti_hessian_entries_hyperdual(spec)
        assert hd_diag == pytest.approx(diag, rel=1e-13, abs=0.0)
        if n == 2:
            assert hd_off is None
        else:
            assert hd_off == pytest.approx(off, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("n, rows", [(2, 1), (3, 2), (2000, 2), (10**5, 2)])
def test_hyperdual_entries_take_one_g_many_call_of_two_rows(monkeypatch, n, rows):
    # two hyper-dual rows hold both entries at every n (one at n = 2): the
    # seeds are (rows, n - 1) arrays, never an (n - 1) x (n - 1) one
    shapes = []
    true_g_many = analytic_core.g_many

    def counted(vs, beta=2.0):
        shapes.append({np.shape(part) for part in (vs.x, vs.x1, vs.x2, vs.x12)})
        return true_g_many(vs, beta)

    monkeypatch.setattr(analytic_core, "g_many", counted)
    anti_hessian_entries_hyperdual(AntiHessianSpec(n, 2.0))
    assert shapes == [{(rows, n - 1)}]


def _seeded(x: np.ndarray) -> HyperDual:
    """x + e1 + e2: a scalar function's f' lands in x1 and x2, f'' in x12."""
    return HyperDual(x, np.ones_like(x), np.ones_like(x), np.zeros_like(x))


def test_hyperdual_carries_exact_first_and_second_derivatives():
    # against analytic derivatives, independent of g
    rng = np.random.default_rng(29)
    for _ in range(20):
        x = rng.uniform(0.1, 4.0, 7)
        p, q = rng.uniform(-3.0, 4.0, 2)
        got = _seeded(x) ** p
        np.testing.assert_allclose(got.x, x**p, rtol=1e-15)
        np.testing.assert_allclose(got.x1, p * x ** (p - 1.0), rtol=1e-14)
        np.testing.assert_allclose(got.x2, got.x1, rtol=0.0)
        np.testing.assert_allclose(got.x12, p * (p - 1.0) * x ** (p - 2.0), rtol=1e-14)

        s = x * rng.choice((-1.0, 1.0), x.size)
        got = abs(_seeded(s))
        np.testing.assert_array_equal(got.x, np.abs(s))
        np.testing.assert_array_equal(got.x1, np.sign(s))
        np.testing.assert_array_equal(got.x12, np.zeros_like(s))

        # (1 + x^p) / (1 + |x|^q) by the quotient rule, twice
        u, du, d2u = 1.0 + x**p, p * x ** (p - 1.0), p * (p - 1.0) * x ** (p - 2.0)
        w, dw, d2w = 1.0 + x**q, q * x ** (q - 1.0), q * (q - 1.0) * x ** (q - 2.0)
        got = (1.0 + _seeded(x) ** p) / (1.0 + abs(_seeded(x)) ** q)
        np.testing.assert_allclose(got.x, u / w, rtol=1e-15)
        np.testing.assert_allclose(got.x1, (du * w - u * dw) / w**2, rtol=1e-13)
        np.testing.assert_allclose(
            got.x12, d2u / w - 2.0 * du * dw / w**2 - u * d2w / w**2 + 2.0 * u * dw**2 / w**3,
            rtol=1e-12,
        )


def test_hyperdual_sums_give_the_mixed_partials():
    # F(v) = sum v_j^p: seeding e1 on v_i and e2 on v_j gives
    # dF/dv_i in x1, dF/dv_j in x2 and delta_ij p (p - 1) v_i^(p - 2) in x12
    rng = np.random.default_rng(31)
    v = rng.uniform(0.2, 3.0, 6)
    p = 2.7
    for i in range(v.size):
        for j in range(v.size):
            x1, x2 = np.zeros_like(v), np.zeros_like(v)
            x1[i], x2[j] = 1.0, 1.0
            got = (HyperDual(v, x1, x2, np.zeros_like(v)) ** p).sum(axis=-1)
            assert got.x == pytest.approx(np.sum(v**p), rel=1e-15)
            assert got.x1 == pytest.approx(p * v[i] ** (p - 1.0), rel=1e-15)
            assert got.x2 == pytest.approx(p * v[j] ** (p - 1.0), rel=1e-15)
            mixed = p * (p - 1.0) * v[i] ** (p - 2.0) if i == j else 0.0
            assert got.x12 == pytest.approx(mixed, rel=1e-15, abs=0.0)


def test_g_many_float_path_is_the_plain_formula():
    # the criterion function on floats is unchanged bit for bit
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2.0, 3.0, (50, 4))
    for beta in BETAS:
        plain = (1.0 + pts.sum(axis=-1)) / (
            1.0 + (np.abs(pts) ** beta).sum(axis=-1)
        ) ** (1.0 / beta)
        np.testing.assert_array_equal(g_many(pts, beta), plain)


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

