"""Closed-form constants, tail predictions, and growth limits."""

import math

import numpy as np
import pytest

from sntail.density import DensityModel, RadialProfileQuery, h_profile, parse_model
from sntail.asymptotics import (
    GammaVariantQuery,
    TailQuery,
    k_constant,
    log_growth_check,
    log_growth_limit,
    predict_gamma_variant,
    predict_tail,
)
from sntail.montecarlo import SamplerSpec, StatisticSpec, estimate_tail
from sntail.oracles import leading_coeff_fit, sphere_tail_exact


def test_k_constant_frozen_values():
    assert k_constant(2, 2.0, "corrected").value == pytest.approx(
        2.0 ** (9.0 / 4.0), rel=1e-13
    )
    assert k_constant(3, 2.0, "corrected").value == pytest.approx(
        6.0 * math.pi, rel=1e-13
    )
    assert k_constant(2, 2.0, "paper").value == pytest.approx(
        2.0 ** (5.0 / 4.0), rel=1e-13
    )
    assert k_constant(3, 2.0, "paper").value == pytest.approx(2.7207, rel=1e-4)


def test_k_constant_at_n_1e19():
    # its determinant underflows to 0, no longer nan; log K stays finite
    for beta in (1.5, 2.0, 3.0):
        for variant in ("paper", "corrected"):
            kc = k_constant(10**19, beta, variant)
            assert kc.determinant == 0.0
            assert math.isfinite(kc.log_value) and kc.value == 0.0


def test_k_constant_continuous_at_beta_two():
    for n in range(2, 11):
        for variant in ("paper", "corrected"):
            at_two = k_constant(n, 2.0, variant).value
            for db in (1e-9, -1e-9):
                near = k_constant(n, 2.0 + db, variant).value
                assert near == pytest.approx(at_two, rel=1e-6)


def test_corrected_constant_matches_sphere_fit():
    # corrected K times the weighted profile at the peak direction must
    # reproduce the exact oracle's leading coefficient
    for n in range(2, 7):
        model = DensityModel.iid_normal(n)
        h = h_profile(model, RadialProfileQuery(np.ones(n - 1), "weighted"))
        constant = k_constant(n, 2.0, "corrected").value * h
        fit = leading_coeff_fit(
            lambda grid: [sphere_tail_exact(n, math.sqrt(n) - e).value for e in grid],
            n,
            np.geomspace(1e-5, 1e-4, 7),
        )
        assert constant == pytest.approx(fit.coefficient, rel=5e-3)
        assert fit.conforming


def test_prediction_homogeneity():
    model = DensityModel.iid_normal(3)
    for eps, eps2 in ((0.1, 0.02), (0.3, 0.05)):
        a = predict_tail(model, TailQuery(eps))
        b = predict_tail(model, TailQuery(eps2))
        assert a.value / b.value == pytest.approx((eps / eps2) ** 1.0, rel=1e-14)
    model4 = DensityModel.iid_normal(4)
    a = predict_tail(model4, TailQuery(0.1))
    b = predict_tail(model4, TailQuery(0.025))
    assert a.value / b.value == pytest.approx(4.0**1.5, rel=1e-14)


def test_two_sided_is_left_plus_right():
    model = DensityModel.iid_normal(3)
    for eps in (0.05, 0.2):
        left = predict_tail(model, TailQuery(eps, side="left"))
        right = predict_tail(model, TailQuery(eps, side="right"))
        both = predict_tail(model, TailQuery(eps, side="two-sided"))
        assert both.value == pytest.approx(left.value + right.value, rel=1e-14)


def test_prediction_monotone_in_epsilon():
    model = DensityModel.iid_normal(3)
    grid = np.linspace(0.01, 0.9, 25)
    vals = [predict_tail(model, TailQuery(float(e))).value for e in grid]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_prediction_validity_guards():
    model = DensityModel.iid_normal(3)
    with pytest.raises(ValueError):
        predict_tail(model, TailQuery(1.5))
    warned = predict_tail(model, TailQuery(0.7))
    assert any("asymptotic regime" in w for w in warned.warnings)
    clean = predict_tail(model, TailQuery(0.3))
    assert clean.warnings == ()
    # the query carries no n: the prediction takes the model's dimension
    assert predict_tail(DensityModel.iid_normal(4), TailQuery(0.1)).n == 4


def test_an_overflowing_profile_fails_the_prediction():
    # log h = 1398.7 at n = 1000, shift 5: the profile overflows a double,
    # and no inf or nan prediction is formed from it
    model = DensityModel.iid_folded_normal(1000, shift=5.0)
    with pytest.raises(ArithmeticError, match="profile overflows a double"):
        predict_tail(model, TailQuery(1e-3))


def test_left_tail_of_positive_model_is_zero():
    # all-positive samples never reach the mirrored threshold; the
    # corrected left profile is exact for any model, the paper one is not
    model = DensityModel.iid_folded_normal(3)
    left = predict_tail(model, TailQuery(0.1, side="left"))
    assert left.value == 0.0
    assert left.warnings == ()
    paper = predict_tail(model, TailQuery(0.1, side="left"), "paper")
    assert paper.value == 0.0
    assert any("left-tail" in w for w in paper.warnings)


_EQUICORRELATED_3 = "1 0.3 0.3 0.3 1 0.3 0.3 0.3 1"


def test_paper_left_tail_of_a_correlated_gaussian_warns():
    # sign-symmetric but not iid: flipping coordinates 2..n changes f, so
    # h_paper(-1) = 0.0897 is not h_paper(1) = 0.1313
    model = parse_model(f"gaussian:cov={_EQUICORRELATED_3}", 3)
    left = predict_tail(model, TailQuery(0.1, side="left"), "paper")
    right = predict_tail(model, TailQuery(0.1), "paper")
    assert left.h_value == pytest.approx(0.0896736515, rel=1e-9)
    assert right.h_value == pytest.approx(0.1312687846, rel=1e-9)
    assert any("left-tail" in w for w in left.warnings)


def test_corrected_left_tail_is_the_reflected_right_tail_and_does_not_warn():
    shifted = parse_model(f"gaussian:mean=0.2 -0.1 0.1,cov={_EQUICORRELATED_3}", 3)
    assert predict_tail(shifted, TailQuery(0.1, side="two-sided")).warnings == ()
    left = predict_tail(parse_model("iid-normal:mu=0.3", 3), TailQuery(0.01, side="left"))
    right = predict_tail(parse_model("iid-normal:mu=-0.3", 3), TailQuery(0.01))
    assert left.warnings == ()
    assert left.h_value == pytest.approx(right.h_value, rel=1e-12)


def test_paper_left_h_of_an_iid_symmetric_model_is_its_right_h():
    model = DensityModel.iid_student_t(3, 5.0)
    left = predict_tail(model, TailQuery(0.1, side="left"), "paper")
    right = predict_tail(model, TailQuery(0.1), "paper")
    assert left.h_value == right.h_value
    assert left.warnings == ()


def test_gamma_variant_reduces_to_published_constant():
    for n in (2, 3, 4, 6):
        plain = predict_gamma_variant(GammaVariantQuery(n, 0.0, 0.1))
        assert plain.constant == pytest.approx(
            k_constant(n, 2.0, "paper").value, rel=1e-12
        )
        assert plain.exponent == pytest.approx(0.5 * (n - 1), abs=1e-15)
    steeper = predict_gamma_variant(GammaVariantQuery(3, 2.0, 0.1))
    assert steeper.exponent == pytest.approx(2.0, abs=1e-15)
    with pytest.raises(ValueError):
        GammaVariantQuery(3, -2.5, 0.1)


def test_log_growth_limit_and_march():
    assert log_growth_limit(2.0) == pytest.approx(-0.25, abs=1e-15)
    assert log_growth_limit(3.0) == pytest.approx(-1.0 / 3.0, rel=1e-15)
    for beta in (2.0, 3.0):
        pairs = log_growth_check(beta, [100, 10_000, 10**8, 10**16])
        gaps = [abs(v - log_growth_limit(beta)) for _, v in pairs]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_mc_respects_dimension_free_bound():
    # statistical check: the estimate stays below the dimension-free
    # reference bound exp(-t^2 / 2) at 3 sigma
    for model_name, beta in (("iid-normal", 2.0), ("iid-student-t:nu=5", 2.0)):
        from sntail.density import parse_model

        model = parse_model(model_name, 3)
        sampler = SamplerSpec(model, 20240604, 200_000, 1)
        est = estimate_tail(sampler, StatisticSpec(beta, "sum"), epsilon=0.3)
        bound = math.exp(-0.5 * est.threshold**2)
        se = (est.ci_high - est.ci_low) / (2.0 * 1.959963984540054)
        assert est.p_hat <= bound + 3.0 * se
