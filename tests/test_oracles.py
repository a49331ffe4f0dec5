"""Exact oracles, quadrature cross-checks, and power-law fitting."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.special import betainc

import sntail.oracles as oracles
from sntail.density import DISCRETE_MODELS, DensityModel, QuadratureError
from sntail.oracles import (
    degenerate_component_check,
    leading_coeff_fit,
    rademacher_tail_exact,
    region_tail_integral,
    regularized_incomplete_beta,
    sphere_tail_exact,
    tail_law,
    tail_window,
)


def test_cross_oracle_region_vs_sphere():
    # two independent routes to the same number: incomplete beta vs quadrature
    for n in (2, 3, 4):
        model = DensityModel.iid_normal(n)
        for eps in (0.01, 0.05, 0.1):
            sphere = sphere_tail_exact(n, math.sqrt(n) - eps)
            region = region_tail_integral(model, eps, 2.0, "weighted")
            assert region.value == pytest.approx(sphere.value, rel=1e-5)


def _exact_tail(model, beta):
    law = tail_law(model, beta)
    return None if law is None else law.tail


def _sphere_c0(n):
    return math.exp(tail_law(DensityModel.iid_normal(n), 2.0).log_c0)


def test_sphere_law_applies_to_a_centred_iid_normal_at_beta_2_only():
    # the statistic is scale-free, so sigma is free; a shift is not
    law = tail_law(DensityModel.iid_normal(3, sigma=2.0), 2.0)
    assert law.name == "sphere law"
    # the law forms 1 - s^2 without cancelling, so the two agree to rounding
    assert law.tail(0.1).value == pytest.approx(
        sphere_tail_exact(3, math.sqrt(3.0) - 0.1).value, rel=1e-14, abs=0.0
    )
    assert _exact_tail(DensityModel.iid_normal(3, mu=0.3), 2.0) is None
    assert _exact_tail(DensityModel.iid_normal(3), 3.0) is None
    # uniform on the sphere as well, but left to region quadrature
    isotropic = DensityModel.gaussian(np.zeros(3), 2.0 * np.eye(3))
    assert tail_law(isotropic, 2.0).name == "quadratic-form law"
    assert _exact_tail(isotropic, 2.0) is None
    assert _exact_tail(DensityModel.iid_student_t(3, 5.0), 2.0) is None
    assert _exact_tail(DensityModel.iid_folded_normal(3), 2.0) is None
    for name in DISCRETE_MODELS:
        assert _exact_tail(name, 2.0) is None


@pytest.mark.parametrize("n", [2, 3, 4, 10])
def test_sphere_law_tail_does_not_cancel_at_small_eps(n):
    # x = 1 - s^2 formed from the threshold s sqrt(n) cancels as eps -> 0
    # (3.9e-9 off at n = 2, eps = 1e-8); the law forms it as delta / n
    law = tail_law(DensityModel.iid_normal(n), 2.0)
    for eps in (1e-8, 1e-6, 1e-3, 0.1):
        delta = eps * (2.0 * math.sqrt(n) - eps)
        exact = 0.5 * betainc(0.5 * (n - 1), 0.5, delta / n)
        got = law.tail(eps)
        assert abs(got.value - exact) <= got.error_estimate
        assert got.value == pytest.approx(exact, rel=2e-14, abs=0.0)


def test_sphere_tail_shape():
    for n in (2, 3, 5, 8):
        assert sphere_tail_exact(n, 0.0).value == pytest.approx(0.5, rel=1e-13)
        assert sphere_tail_exact(n, math.sqrt(n)).value == 0.0
        grid = np.linspace(0.0, math.sqrt(n), 60)
        vals = [sphere_tail_exact(n, t).value for t in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_sphere_tail_frozen_value():
    got = sphere_tail_exact(2, math.sqrt(2.0) - 0.01).value
    assert got == pytest.approx(0.037875979175382504, rel=1e-13)


def test_sphere_tail_exactly_linear_at_n3():
    # the n=3 law is eps / (2 sqrt(3)) with no higher-order terms
    for eps in (1e-6, 1e-3, 0.1, 0.5):
        got = sphere_tail_exact(3, math.sqrt(3.0) - eps).value
        assert got == pytest.approx(eps / (2.0 * math.sqrt(3.0)), rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 5, 10])
def test_sphere_tail_constant_is_the_limit_of_the_exact_law(n):
    # q / eps^a = c0 (1 + k1 eps + O(eps^2)), a = (n-1)/2: with
    # I_x(a, 1/2) = x^a / (a B) (1 + a x / (2(a+1)) + ...) (DLMF §8.17) and
    # x = (2 eps / sqrt(n)) (1 - eps / (2 sqrt(n))), k1 = a (1 - a) / (2 sqrt(n) (a+1))
    a = 0.5 * (n - 1)
    law = tail_law(DensityModel.iid_normal(n), 2.0)
    c0 = math.exp(law.log_c0)
    k1 = a * (1.0 - a) / (2.0 * math.sqrt(n) * (a + 1.0))
    for eps in (1e-2, 1e-3, 1e-4):
        ratio = law.tail(eps).value / eps**a / c0
        assert abs(ratio - 1.0) <= n * eps
        assert abs(ratio - 1.0 - k1 * eps) <= eps * eps
    # n = 3 is exactly linear: c0 = 1 / (2 sqrt(3))
    if n == 3:
        assert c0 == pytest.approx(0.5 / math.sqrt(3.0), rel=1e-15)


def test_sphere_tail_constant_is_the_corrected_prediction():
    # the corrected K times the closed-form weighted profile is the limit,
    # for every n whose prediction does not underflow
    from sntail.asymptotics import TailQuery, predict_tail

    for n in range(2, 401):
        predicted = predict_tail(DensityModel.iid_normal(n), TailQuery(0.1)).constant
        assert predicted == pytest.approx(_sphere_c0(n), rel=1e-12, abs=0.0)
    # log form: the limit leaves the normal doubles only near n = 570
    assert _sphere_c0(560) > np.finfo(float).tiny
    assert _sphere_c0(1000) == 0.0
    with pytest.raises(ValueError):
        _sphere_c0(1)


def _random_spd(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return a @ a.T / n + 0.5 * np.eye(n)


@pytest.mark.parametrize("n", [2, 3, 10, 100])
def test_normal_constant_is_the_sphere_law_on_an_isotropic_normal(n):
    # log c0, compared in the log: at n = 100 it is about -80, where one
    # ulp of it is 1.4e-14 of c0
    sphere = math.log(_sphere_c0(n))
    for sigma in (1.0, 0.37, 2.5):
        iid = DensityModel.iid_normal(n, sigma=sigma)
        isotropic = DensityModel.gaussian(np.zeros(n), sigma * sigma * np.eye(n))
        for model in (iid, isotropic):
            got = tail_law(model, 2.0).log_c0
            assert got == pytest.approx(sphere, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("n", [2, 3, 5, 10, 30, 100])
def test_normal_constant_is_the_corrected_prediction(n):
    from sntail.asymptotics import TailQuery, predict_tail

    for seed in (1, 2):
        model = DensityModel.gaussian(np.zeros(n), _random_spd(n, seed))
        predicted = predict_tail(model, TailQuery(0.1), "corrected").constant
        exact = math.exp(tail_law(model, 2.0).log_c0)
        assert predicted == pytest.approx(exact, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_normal_constant_is_the_limit_of_the_region_oracle(n):
    # the region quadrature shares nothing with the eigenvalues: its tail
    # over c0 eps^a meets 1 at O(eps), 100 times closer at eps = 1e-6
    # than at 1e-4 (an error in c0 would leave a floor instead)
    a = 0.5 * (n - 1)
    for cov in (_random_spd(n, 31), 0.7 * np.eye(n) + 0.3):
        model = DensityModel.gaussian(np.zeros(n), cov)
        c0 = math.exp(tail_law(model, 2.0).log_c0)
        gap = [region_tail_integral(model, eps).value / (c0 * eps**a) - 1.0
               for eps in (1e-6, 1e-4)]
        assert abs(gap[0]) <= 1e-5
        assert 50.0 <= gap[1] / gap[0] <= 200.0


def test_normal_constant_needs_a_centred_normal_at_beta_2():
    cov = _random_spd(3, 4)
    assert tail_law(DensityModel.gaussian(np.full(3, 0.3), cov), 2.0) is None
    assert tail_law(DensityModel.gaussian(np.zeros(3), cov), 3.0) is None
    assert tail_law(DensityModel.iid_normal(3, mu=0.3), 2.0) is None
    assert tail_law(DensityModel.iid_normal(3), 1.5) is None
    assert tail_law(DensityModel.iid_student_t(3, 5.0), 2.0) is None
    for name in DISCRETE_MODELS:
        assert tail_law(name, 2.0) is None


def test_incomplete_beta_symmetry_sweep():
    rng = np.random.default_rng(20240603)
    for _ in range(400):
        a = float(rng.uniform(0.1, 30.0))
        b = float(rng.uniform(0.1, 30.0))
        x = float(rng.uniform(0.0, 1.0))
        total = regularized_incomplete_beta(a, b, x) + regularized_incomplete_beta(
            b, a, 1.0 - x
        )
        assert abs(total - 1.0) <= 1e-13


def test_incomplete_beta_against_scipy():
    rng = np.random.default_rng(99)
    for _ in range(200):
        a = float(rng.uniform(0.2, 20.0))
        b = float(rng.uniform(0.2, 20.0))
        x = float(rng.uniform(0.0, 1.0))
        assert regularized_incomplete_beta(a, b, x) == pytest.approx(
            betainc(a, b, x), abs=1e-14, rel=1e-12
        )


def test_leading_coeff_fit_recovers_synthetic_law():
    rng = np.random.default_rng(17)
    for _ in range(20):
        c = float(rng.uniform(0.05, 5.0))
        e = float(rng.uniform(0.3, 3.0))
        grid = np.geomspace(1e-4, 1e-2, 9)
        fit = leading_coeff_fit(lambda t: c * t**e, 4, grid)
        assert fit.coefficient == pytest.approx(c, rel=1e-10)
        assert fit.exponent == pytest.approx(e, abs=1e-10)
    # a law with the generic exponent (n - 1)/2 conforms at its own n
    for n in range(2, 6):
        e = 0.5 * (n - 1)
        fit = leading_coeff_fit(lambda t: 0.7 * t**e, n, np.geomspace(1e-4, 1e-2, 9))
        assert fit.expected_exponent == e
        assert fit.exponent == pytest.approx(e, abs=1e-10)
        assert fit.conforming


def test_leading_coeff_fit_grid_hygiene():
    with pytest.raises(ValueError):
        leading_coeff_fit(lambda t: t, 3, np.array([1e-3, 1e-3, 1e-2]))
    with pytest.raises(ValueError):
        leading_coeff_fit(lambda t: t, 3, np.array([1e-3, 1e-2]))
    with pytest.raises(ValueError):
        leading_coeff_fit(lambda t: t, 3, np.array([-1e-3, 1e-3, 1e-2]))
    fit = leading_coeff_fit(lambda t: t, 3, np.array([1e-2, 1e-3, 1e-4]))
    # grid is recorded largest-first, marching toward zero
    assert fit.epsilons == (1e-2, 1e-3, 1e-4)


def test_leading_coeff_fit_flags_flat_tail():
    # an atom at the boundary fits exponent 0 and must not conform
    fit = leading_coeff_fit(
        lambda t: 0.125, 3, np.geomspace(1e-3, 1e-1, 7)
    )
    assert fit.exponent == pytest.approx(0.0, abs=1e-12)
    assert not fit.conforming


def test_rademacher_tail_enumeration():
    # inside the window only the all-equal sign pattern clears the threshold
    for n in (2, 3, 4, 8, 12):
        eps = 0.4 / math.sqrt(n)
        res = rademacher_tail_exact(n, eps)
        assert res.value == 2.0 ** (-n)
        assert res.error_estimate == 0.0
    # direct check against a brute-force count at n=4
    n, eps = 4, 0.2
    threshold = math.sqrt(n) - eps
    count = 0
    for mask in range(2**n):
        signs = np.array([1.0 if mask >> j & 1 else -1.0 for j in range(n)])
        if signs.sum() / math.sqrt(n) > threshold:
            count += 1
    assert rademacher_tail_exact(n, eps).value == count / 2.0**n


def test_rademacher_tail_flat_in_window():
    # the tail is an atom: constant over the whole admissible window
    n = 5
    lo = rademacher_tail_exact(n, 1e-9).value
    hi = rademacher_tail_exact(n, 0.99 * 0.5 / math.sqrt(n)).value
    assert lo == hi == 2.0 ** (-n)


def test_degenerate_component_tail_is_zero():
    for n in (3, 4, 6):
        eps = 0.9 * (math.sqrt(n) - math.sqrt(n - 1.0))
        res = degenerate_component_check(n, eps)
        assert res.value == 0.0
        assert res.error_estimate == 0.0


def test_degenerate_component_tail_beyond_its_window_is_the_reduced_sphere_law():
    # at n = 3 the window ends at sqrt(3) - sqrt(2) = 0.318; beyond it the
    # tail is the n - 1 = 2 sphere law at the original threshold
    res = degenerate_component_check(3, 0.5)
    assert res.value == sphere_tail_exact(2, math.sqrt(3) - 0.5).value
    assert res.value == pytest.approx(0.163347812089, rel=1e-11)
    assert res.error_estimate == 5e-15


def test_tail_window_values():
    assert tail_window(3, 2.0) == pytest.approx(math.sqrt(3) - math.sqrt(2), rel=1e-12)
    for n in (2, 3, 5):
        for beta in (1.5, 2.0, 3.0):
            w = tail_window(n, beta)
            assert 0.0 < w < n ** (1.0 - 1.0 / beta)


def test_region_integral_respects_window():
    model = DensityModel.iid_normal(3)
    with pytest.raises(ValueError):
        region_tail_integral(model, 2.0 * tail_window(3, 2.0), 2.0, "weighted")
    with pytest.raises(ValueError):
        region_tail_integral(model, -0.1, 2.0, "weighted")


def test_region_integral_beta3():
    # quadrature route works off the Euclidean case too
    model = DensityModel.iid_normal(2)
    eps = 0.05
    res = region_tail_integral(model, eps, 3.0, "weighted")
    assert res.value > 0.0
    assert res.error_estimate < 1e-6 * res.value + 1e-12


def test_paper_integrand_differs_from_weighted():
    # the two integrands answer different questions; they must not coincide
    model = DensityModel.iid_normal(3)
    w = region_tail_integral(model, 0.1, 2.0, "weighted").value
    p = region_tail_integral(model, 0.1, 2.0, "paper").value
    assert abs(w - p) > 1e-3 * w


def test_a_shared_region_plan_covers_the_weighted_half_of_a_user_density():
    # N((-8, -8), I): the paper integrand lives near z = -8, the weighted
    # one on z > 0 within about 1/16 of z = 0.  The plan's one extent covers
    # both half-lines, so the user density's weighted read matches the
    # closed-form gaussian's; a plan with an empty weighted half reads 0.0.
    gaussian = DensityModel.gaussian(np.array([-8.0, -8.0]), np.eye(2))
    user = DensityModel.user(2, gaussian.pdf)
    for eps in (1e-8, 0.01, 0.1 * tail_window(2, 2.0)):
        exact = region_tail_integral(gaussian, eps, 2.0, "weighted")
        got = region_tail_integral(user, eps, 2.0, "weighted")
        assert got.value > 0.0
        assert abs(got.value - exact.value) <= got.error_estimate + exact.error_estimate


def _unfolded_twin(model):
    # the same density as a user model, which never claims exchangeability
    return DensityModel.user(model.n, model.pdf)


def _recorded_batches(monkeypatch, model, eps, integrand):
    batches = []
    original = oracles.profile_batch

    def recording(model, vs, variant, plan):
        batches.append(np.array(vs))
        return original(model, vs, variant, plan)

    monkeypatch.setattr(oracles, "profile_batch", recording)
    res = region_tail_integral(model, eps, 2.0, integrand)
    monkeypatch.undo()
    # one profile_batch call for the first grid and one per step
    assert len(batches) == res.metadata["refinement_level"] + 1
    assert sum(b.shape[0] for b in batches) == res.metadata["nodes"]
    return batches


def _labels(x):
    # one label per point, shared by the points within 1e-9 of each other
    x = x.reshape(len(x), -1)
    return np.array([min(near) for near in cKDTree(x).query_ball_point(x, 1e-9)])


def _steps(batches, n, eps):
    # split each point 1 + r s a into its grid direction a and radial
    # fraction s = r / reach(a), and name the axis each step refined
    full = np.vstack(batches)
    offset = full - 1.0
    radius = np.linalg.norm(offset, axis=1)
    axes = offset / radius[:, None]
    d_label = _labels(axes)
    s_label = _labels(radius / oracles._reach(axes, n, 2.0, eps))
    dirs, radii, steps = set(), set(), []
    for k, part in enumerate(np.split(np.arange(full.shape[0]),
                                      np.cumsum([b.shape[0] for b in batches])[:-1])):
        d, s = set(d_label[part]), set(s_label[part])
        # each batch is the whole tensor product of its directions and radii
        assert part.size == len(d) * len(s)
        if k:
            # a step evaluates the fresh nodes of one axis against every
            # node the other axis already holds
            assert (d == dirs and not s & radii) or (s == radii and not d & dirs)
            steps.append("radius" if d == dirs else "directions")
        dirs, radii = dirs | d, radii | s
    # together the batches are the whole final grid
    assert full.shape[0] == len(dirs) * len(radii)
    return steps


# The axes each step refines: dim 1's directions +-1 never refine, the
# paper integrand at n = 3 doubles 16 -> 32 angles, the weighted one at
# n = 4 doubles 7 x 16 -> 15 x 32 after its radius.
_STEPS = {2: ["radius"], 3: ["directions", "radius"], 4: ["radius", "directions"]}


@pytest.mark.parametrize("n, eps, integrand", [
    (2, 0.05, "weighted"), (3, 0.05, "paper"), (4, 0.05, "weighted"),
])
def test_region_levels_nest(monkeypatch, n, eps, integrand):
    # each step doubles one axis and evaluates only that axis's new nodes:
    # no point twice, and together the full final grid
    model = DensityModel.iid_student_t(n, 5.0)
    batches = _recorded_batches(monkeypatch, _unfolded_twin(model), eps, integrand)
    full = np.vstack(batches)
    assert np.unique(full, axis=0).shape[0] == full.shape[0]
    assert _steps(batches, n, eps) == _STEPS[n]
    # an exchangeable model takes the same steps on the canonical half
    # (v1 >= v2) of the azimuths, diagonal included: 9 of 16 on the first
    # grid at n = 3, 7 x 9 of 7 x 16 at n = 4
    folded_batches = _recorded_batches(monkeypatch, model, eps, integrand)
    folded = np.vstack(folded_batches)
    assert folded_batches[0].shape[0] == {2: 2 * 11, 3: 9 * 11, 4: 7 * 9 * 11}[n]
    if n == 2:
        np.testing.assert_array_equal(folded, full)
        return
    assert len(folded_batches) == len(batches)
    assert all(f.shape[0] < b.shape[0] for f, b in zip(folded_batches, batches))
    assert (folded[:, 0] >= folded[:, 1] - 1e-15).all()
    # the evaluated points and their mirrors are the whole final grid
    swapped = folded.copy()
    swapped[:, [0, 1]] = folded[:, [1, 0]]
    distance, index = cKDTree(full).query(np.vstack((folded, swapped)))
    assert distance.max() < 1e-14
    assert np.unique(index).size == full.shape[0]


def test_region_n2_matches_sphere_law():
    # the interval case runs through the same ladder, on the directions +-1
    model = DensityModel.iid_normal(2)
    for eps in (1e-3, 0.01, 0.1, 0.4):
        exact = sphere_tail_exact(2, math.sqrt(2.0) - eps).value
        res = region_tail_integral(model, eps, 2.0, "weighted")
        assert res.value == pytest.approx(exact, rel=1e-12)
        assert abs(res.value - exact) <= res.error_estimate


def test_region_n2_resolves_a_support_edge():
    # The folded normal's profile has a support edge, where its closed
    # form starts each ray.  Reference:
    # coordinates 2 phi(x - 1) on x >= 1 give, along (1, t), the weighted
    # profile C (m Q + exp(-a (e - m)^2 / 2) / a) with a = 1 + t^2,
    # m = (1 + t) / a, e = max(1, 1 / t) and Q the Gaussian tail past e.
    # It is smooth on each side of t = 1; Gauss-Legendre integrates both.
    def profile(t):
        a = 1.0 + t * t
        m, edge = (1.0 + t) / a, np.maximum(1.0, 1.0 / t)
        scale = (2.0 / math.pi) * np.exp(-0.5 * (2.0 - a * m * m))
        tail = np.sqrt(2.0 * math.pi / a) * 0.5 * np.array(
            [math.erfc(x) for x in np.sqrt(0.5 * a) * (edge - m)]
        )
        return scale * (m * tail + np.exp(-0.5 * a * (edge - m) ** 2) / a)

    model = DensityModel.iid_folded_normal(2)
    x, w = np.polynomial.legendre.leggauss(80)
    for eps in (1e-3, 0.1):
        # (1 + t)^2 / (1 + t^2) > L^2 between the roots of k t^2 - 2 t + k
        k = (math.sqrt(2.0) - eps) ** 2 - 1.0
        root = math.sqrt(1.0 - k * k)
        exact = 0.0
        for lo, hi in (((1.0 - root) / k, 1.0), (1.0, (1.0 + root) / k)):
            exact += 0.5 * (hi - lo) * (w @ profile(lo + 0.5 * (hi - lo) * (x + 1.0)))
        res = region_tail_integral(model, eps, 2.0, "weighted")
        assert res.value == pytest.approx(exact, rel=1e-10)
        assert abs(res.value - exact) <= res.error_estimate


def _reach_50_digits(d, n, beta, eps):
    # bisection of g(1 + r d) = n**(1-1/beta) - eps, in 50-digit decimals
    # from the exact binary values of d and eps
    with localcontext() as ctx:
        ctx.prec = 50
        comps = [Decimal(float(x)) for x in d]
        b = Decimal(beta)
        level_b = (Decimal(n) ** (1 - 1 / b) - Decimal(eps)) ** b

        def inside(r):
            # g > level, raised to the integral power beta
            v = [1 + r * x for x in comps]
            top = 1 + sum(v)
            return top > 0 and top**b > level_b * (1 + sum(abs(x) ** b for x in v))

        lo, hi = Decimal(0), Decimal(1)
        while inside(hi):
            lo, hi = hi, 2 * hi
        for _ in range(130):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if inside(mid) else (lo, mid)
        return float((lo + hi) / 2)


def _reach_directions(dim, rng):
    diagonal = np.full(dim, 1.0 / math.sqrt(dim))
    axis = np.eye(dim)[0]
    random = rng.standard_normal((3, dim))
    random /= np.linalg.norm(random, axis=1, keepdims=True)
    return np.vstack((diagonal, -diagonal, axis, -axis, random))


@pytest.mark.parametrize("n", [2, 3, 4, 10, 100])
def test_reach_matches_a_50_digit_root(n):
    # beta = 2 is the closed-form root.  beta = 3 bisects g in doubles, whose
    # rounding near the peak costs about 1e-16 / eps, so it is held to 1e-12
    # only from eps = 1e-2 on, and only up to n = 10: region quadrature runs
    # it for n <= 4, and at n = 100 the rounding of g's 100-term sums moves
    # the diagonal root at 0.99 of the window by 1.4e-12
    rng = np.random.default_rng(n)
    dirs = _reach_directions(n - 1, rng)
    for beta, epsilons in ((2.0, (1e-6, 1e-4, 1e-2)), (3.0, (1e-2,))):
        if beta == 3.0 and n > 10:
            continue
        window = tail_window(n, beta)
        tight = 2e-14 if beta == 2.0 else 1e-12
        cases = [(e, tight) for e in epsilons] + [(f * window, 1e-12) for f in (0.5, 0.99)]
        for eps, rel in cases:
            got = oracles._reach(dirs, n, beta, eps)
            for d, r in zip(dirs, got):
                assert r == pytest.approx(_reach_50_digits(d, n, beta, eps), rel=rel), (
                    beta, eps, d,
                )


@pytest.mark.parametrize("n", [3, 4, 10, 100])
def test_reach_is_largest_on_the_diagonal(n):
    # the farthest boundary point from the all-ones point lies on one of the
    # two diagonal rays; directions p * diagonal + sqrt(1 - p**2) * q, q
    # orthogonal to it, sweep p over [-1, 1], and the rest are isotropic
    rng = np.random.default_rng(100 + n)
    dim = n - 1
    diagonal = np.full(dim, 1.0 / math.sqrt(dim))
    q = rng.standard_normal((5000, dim))
    q -= np.outer(q @ diagonal, diagonal)
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    p = rng.uniform(-1.0, 1.0, size=(5000, 1))
    iso = rng.standard_normal((5000, dim))
    iso /= np.linalg.norm(iso, axis=1, keepdims=True)
    dirs = np.vstack((p * diagonal + np.sqrt(1.0 - p * p) * q, iso))
    for eps in (1e-4, 1e-2, 0.5 * tail_window(n), 0.99 * tail_window(n)):
        extent = oracles._reach(np.vstack((diagonal, -diagonal)), n, 2.0, eps).max()
        assert oracles._reach(dirs, n, 2.0, eps).max() <= extent * (1.0 + 1e-13)


def test_beta2_region_runs_no_root_search(monkeypatch):
    # the boundary is a closed form: g is never evaluated
    def forbidden(*args, **kwargs):
        raise AssertionError("g evaluated: a root search ran")

    monkeypatch.setattr(oracles, "g_many", forbidden)
    for n in (2, 3, 4):
        res = region_tail_integral(DensityModel.iid_normal(n), 0.05, 2.0, "weighted")
        exact = sphere_tail_exact(n, math.sqrt(n) - 0.05).value
        assert res.value == pytest.approx(exact, rel=1e-10)


@pytest.mark.parametrize("make_model, n, eps, beta, frozen", [
    (lambda: DensityModel.iid_student_t(3, 5.0), 3, 0.01, 2.0, 0.0023810098054001553),
    (lambda: DensityModel.gaussian(np.zeros(4), np.eye(4)), 4, 0.1, 2.0, 0.006660005505070629),
    (lambda: DensityModel.iid_normal(2), 2, 0.05, 3.0, 0.0576994806145124),
])
def test_region_values_frozen(make_model, n, eps, beta, frozen):
    # values of the coordinate-box, bisected-boundary, finite-difference
    # metric route that the closed forms replaced
    res = region_tail_integral(make_model(), eps, beta, "weighted")
    assert res.value == pytest.approx(frozen, rel=1e-11)


def _equicorrelated(n):
    return DensityModel.gaussian(np.zeros(n), 0.7 * np.eye(n) + 0.3)


_EXCHANGEABLE = {
    "iid-normal": DensityModel.iid_normal,
    "iid-normal:mu=0.3": lambda n: DensityModel.iid_normal(n, mu=0.3),
    "iid-student-t:nu=5": lambda n: DensityModel.iid_student_t(n, 5.0),
    "equicorrelated": _equicorrelated,
}


@pytest.mark.parametrize("name", list(_EXCHANGEABLE))
@pytest.mark.parametrize("n", [3, 4])
def test_folded_region_matches_its_unfolded_twin(name, n):
    # copying each mirror node's value from its twin changes only rounding
    model = _EXCHANGEABLE[name](n)
    assert model.exchangeable
    cases = [(0.02 * tail_window(n, beta), beta, integrand)
             for beta in (2.0, 3.0) for integrand in ("weighted", "paper")]
    for eps, beta, integrand in cases:
        folded = region_tail_integral(model, eps, beta, integrand)
        twin = region_tail_integral(_unfolded_twin(model), eps, beta, integrand)
        assert folded.metadata["refinement_level"] == twin.metadata["refinement_level"]
        assert folded.metadata["nodes"] < twin.metadata["nodes"]
        np.testing.assert_allclose(folded.value, twin.value, rtol=1e-13, atol=0.0)


def test_region_grid_raises_when_one_eps_misses(monkeypatch):
    # the folded normal at n = 3 refines only its angles, 16 -> 128 to
    # settle eps = 1e-4 and 16 -> 256 for 1e-3; with a budget of 128 x 11
    # nodes, 1e-3 misses and names its last move
    monkeypatch.setitem(oracles._LADDER, 2, (16, 12, 128 * 11))
    model = DensityModel.iid_folded_normal(3)
    with pytest.raises(QuadratureError) as info:
        region_tail_integral(model, 1e-3, 2.0, "weighted", rel_target=1e-6)
    assert str(info.value) == (
        "region quadrature missed relative target 1.0e-06; last refinement "
        "moved the value at eps = 0.001 by 1.192e-06 of itself"
    )
    res = region_tail_integral(model, 1e-4, 2.0, "weighted", rel_target=1e-6)
    assert res.metadata["refinement_level"] == 3


@pytest.mark.parametrize("n", [2, 3, 4])
def test_region_meets_the_exact_sphere_law(n):
    # a small first grid must not settle on a false value: every read of a
    # standard normal, from eps = 1e-8 to the edge of the window, holds the
    # sphere law within its error estimate and 1e-12 relative; 1 - s^2 is
    # formed as delta / n, delta = eps (2 sqrt(n) - eps), free of cancellation
    window = tail_window(n)
    for eps in (1e-8, 1e-4, 1e-2, 0.5 * window, 0.95 * window):
        x = eps * (2.0 * math.sqrt(n) - eps) / n
        exact = 0.5 * betainc(0.5 * (n - 1), 0.5, x)
        for rel_target in (1e-6, 1e-8):
            res = region_tail_integral(DensityModel.iid_normal(n), eps, 2.0, "weighted",
                                       rel_target=rel_target)
            assert abs(res.value - exact) <= res.error_estimate, (eps, rel_target)
            assert res.value == pytest.approx(exact, rel=1e-12, abs=0.0), (eps, rel_target)
