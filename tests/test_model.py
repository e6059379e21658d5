import numpy as np
import pytest
from numpy.polynomial import polynomial as P
from hypothesis import given, settings
from hypothesis import strategies as st

import mckeanflow as mk
from mckeanflow import ModelConfig, ModelError, Potential


def test_double_well_values():
    p = Potential.double_well()
    assert p.value(0.0) == 0.0
    assert p.value(1.0) == pytest.approx(-0.25)
    assert p.grad(1.0) == pytest.approx(0.0, abs=1e-15)
    assert p.hess(0.0) == pytest.approx(-1.0)
    assert p.hess(1.0) == pytest.approx(2.0)


def test_potential_gradient_matches_finite_differences():
    h = 1e-6
    xs = np.linspace(-3.0, 3.0, 61)
    for p in (Potential.double_well(), Potential.quadratic(),
              Potential.polynomial([0.0, 0.3, -0.5, 0.0, 0.25])):
        fd = (p.value(xs + h) - p.value(xs - h)) / (2 * h)
        scale = np.maximum(1.0, np.abs(p.grad(xs)))
        assert np.max(np.abs(p.grad(xs) - fd) / scale) <= 1e-6


def test_cached_derivatives_match_polyder_bit_for_bit():
    xs = np.linspace(-3.0, 3.0, 61)
    for p in (Potential.double_well(), Potential.quadratic(),
              Potential.polynomial([0.0, 0.3, -1.0, 0.0, 0.0, 0.0, 0.1]),
              Potential.multi_well([(0.5, -1.0, 0.5), (0.3, 1.0, 0.8)])):
        for _ in range(2):  # the first pass fills the cache
            for x in (0.7, -2.25, xs):
                for k, fn in ((1, p.grad), (2, p.hess)):
                    want = P.polyval(x, P.polyder(p.coefficients, k))
                    assert np.array_equal(fn(x), want)
                    assert np.shape(fn(x)) == np.shape(want)
        twin = Potential(p.coefficients, label=p.label)
        assert p == twin and hash(p) == hash(twin)
        assert p != Potential(p.coefficients, label="other")


def test_hess_inf_refines_to_stable_value():
    # the reported infimum is a lower bound, tight to the refinement tol
    p = Potential.double_well()
    # 3x^2 - 1 has minimum -1 at 0
    b = p.hess_inf(-2.0, 2.0)
    assert -1.0 - 5e-6 <= b <= -1.0 + 1e-12
    assert p.hess_inf(0.5, 2.0) == pytest.approx(3 * 0.25 - 1, abs=5e-6)
    assert p.hess_inf_global() == pytest.approx(-1.0, abs=5e-6)


def _grid_min_hess(p, lo, hi, depth=3):
    """min of V'' on a 2001-point grid over [lo, hi], refined by nested
    grids around each discrete local minimum."""
    xs = np.linspace(lo, hi, 2001)
    h = p.hess(xs)
    if depth == 0:
        return float(h.min())
    padded = np.concatenate(([np.inf], h, [np.inf]))
    local = np.flatnonzero((h < padded[:-2]) & (h <= padded[2:]))
    # V'' of degree <= 6 has at most three local minima; more only show up
    # as rounding noise on flat stretches
    local = local[np.argsort(h[local])[:4]]
    return min([float(h.min())]
               + [_grid_min_hess(p, xs[max(i - 1, 0)],
                                 xs[min(i + 1, len(xs) - 1)], depth - 1)
                  for i in local])


@settings(max_examples=60, deadline=None)
@given(half_degree=st.integers(1, 4),
       coeffs=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
       lead=st.floats(0.5, 2.0),
       lo=st.floats(-3.0, 3.0),
       width=st.floats(1e-3, 6.0),
       kind=st.sampled_from(["finite", "left", "right"]))
def test_hess_inf_matches_dense_grid(half_degree, coeffs, lead, lo, width,
                                     kind):
    degree = 2 * half_degree
    p = Potential.polynomial(coeffs[:degree] + [lead])
    hi = lo + width
    # every root of V''' lies within its Cauchy bound, and beyond it V''
    # is monotone, so a window reaching past the bound holds the infimum
    d3 = np.polynomial.polynomial.polyder(p.coefficients, 3)
    reach = 1.0 + float(np.max(np.abs(d3[:-1] / d3[-1]), initial=0.0))
    if kind == "left":
        b = p.hess_inf(-np.inf, hi)
        ref = _grid_min_hess(p, min(hi, -reach) - 1.0, hi)
    elif kind == "right":
        b = p.hess_inf(lo, np.inf)
        ref = _grid_min_hess(p, lo, max(lo, reach) + 1.0)
    else:
        b = p.hess_inf(lo, hi)
        ref = _grid_min_hess(p, lo, hi)
    assert b <= ref
    assert ref - b <= 1e-9 * (1.0 + abs(ref))


@settings(max_examples=60, deadline=None)
@given(a=st.floats(-2.0, 2.0),
       log_gap=st.floats(-12.0, -1.0),
       b=st.floats(-3.0, 3.0),
       quintic=st.booleans(),
       low=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
       lo=st.floats(-4.0, -0.01),
       hi=st.floats(0.0, 4.0),
       kind=st.sampled_from(["finite", "left", "right"]))
def test_hess_inf_near_coincident_roots(a, log_gap, b, quintic, low, lo, hi,
                                        kind):
    # V''' has two roots a and a + gap; one of them is a local minimum of
    # V'', and polyroots may return it off by more than the gap
    roots = [a, a + 10.0 ** log_gap, b]
    d3 = np.polynomial.polynomial.polyfromroots(roots)
    if quintic:
        d3 = np.polynomial.polynomial.polymul(d3, [0.5, 0.0, 1.0])
    p = Potential.polynomial(np.polynomial.polynomial.polyint(d3, 3, k=low))
    lo = -np.inf if kind == "left" else lo
    hi = np.inf if kind == "right" else hi
    bound = p.hess_inf(lo, hi)
    span = (max(lo, -5.0), min(hi, 5.0))  # all roots of V''' lie inside
    ref = min(_grid_min_hess(p, *span),
              float(np.min(p.hess(np.clip(roots, *span)))))
    assert bound <= ref
    assert ref - bound <= 1e-9 * (1.0 + abs(ref))


def test_hess_inf_holds_when_root_is_off(monkeypatch):
    # V'' = 3x^2 - 1 with the root of V''' returned 1e-6 off: the first
    # brackets about it read + and +, and only a wider one finds x = 0
    monkeypatch.setattr(np.polynomial.polynomial, "polyroots",
                        lambda c: np.array([1e-6]))
    b = Potential.double_well().hess_inf(-2.0, 2.0)
    assert -1.0 - 1e-12 <= b <= -1.0


def test_four_well_curvature_minimum():
    # V''(+-1) already clears V''(0) = -1 by more than 1, but the deepest
    # concave region sits at the outer barriers, x = +-2.3154
    p = Potential.polynomial(
        np.array([0.0, 0.0, -18.0, 0.0, 49 / 4, 0.0, -7 / 3, 0.0, 1 / 8])
        / 36.0)
    assert p.hess_inf_global() == pytest.approx(-5.03381789, abs=1e-8)
    _, _, kappa1 = mk.structural_constants(mk.standard_model(1.0, 0.3, p))
    assert kappa1 == pytest.approx(6.0676, abs=1e-4)


def test_multi_well_is_sum_of_shifted_quartics():
    # one well pair ((x-a)^2 - r^2)^2 centered at 0: minima at +-r
    p = Potential.multi_well([(1.0, 0.0, 1.5)])
    xs = np.linspace(-3, 3, 41)
    assert np.allclose(p.value(xs), p.value(-xs), atol=1e-12)
    assert p.hess_inf_global() < 0  # barrier between the minima
    assert p.grad(1.5) == pytest.approx(0.0, abs=1e-12)
    assert p.grad(-1.5) == pytest.approx(0.0, abs=1e-12)
    # shifted pair keeps its critical points at center +- radius
    q = Potential.multi_well([(0.5, 0.7, 1.0)])
    assert q.grad(1.7) == pytest.approx(0.0, abs=1e-12)
    assert q.grad(-0.3) == pytest.approx(0.0, abs=1e-12)


def test_polynomial_rejects_bad_leading_term():
    with pytest.raises(ModelError):
        Potential.polynomial([0.0, 0.0, 0.0, 1.0])  # odd leading power
    with pytest.raises(ModelError):
        Potential.polynomial([0.0, 0.0, 0.0, 0.0, -1.0])  # negative leading


def test_model_config_validation():
    with pytest.raises(ModelError):
        mk.standard_model(1.0, -0.1)
    with pytest.raises(ModelError):
        mk.standard_model(1.0, 0.0)
    m = mk.standard_model(1.0, 0.5)
    assert m.theta == 1.0
    assert m.with_sigma2(0.25).sigma2 == 0.25
    assert m.with_sigma2(0.25).theta == m.theta


# ---- drift -------------------------------------------------------------------


def test_drift_at_origin_is_zero():
    m = mk.standard_model(1.0, 0.3)
    assert mk.drift(m, 0.0, 0.0) == 0.0


def test_drift_double_well_at_one():
    # V'(1) = 0, so the interaction term is everything
    m = mk.standard_model(1.0, 0.3)
    assert mk.drift(m, 1.0, 0.0) == pytest.approx(-2.0)


def test_drift_pure_confinement():
    m = mk.standard_model(0.0, 1.0, potential=Potential.quadratic())
    # mean is irrelevant at theta=0
    assert mk.drift(m, 2.0, 5.0) == pytest.approx(-2.0)


def test_drift_odd_about_zero_mean(dw03):
    xs = np.linspace(-3, 3, 101)
    d = mk.drift(dw03, xs, 0.0)
    d_neg = mk.drift(dw03, -xs, 0.0)
    assert np.max(np.abs(d + d_neg)) == 0.0


# ---- per-measure potential ---------------------------------------------------


def test_mean_field_potential_no_interaction():
    m = mk.standard_model(0.0, 1.0)
    assert mk.mean_field_potential(m, 1.0, 3.0, 10.0) == pytest.approx(-0.25)


def test_mean_field_potential_with_interaction(dw03):
    v = mk.mean_field_potential(dw03, 0.0, 0.0, 1.0)
    assert v == pytest.approx(1.0)


def test_mean_field_potential_rejects_bad_moments(dw03):
    with pytest.raises(ModelError):
        mk.mean_field_potential(dw03, 0.0, mean=2.0, second_moment=1.0)


def test_mean_field_potential_slope_is_minus_drift(dw03):
    h = 1e-6
    xs = np.linspace(-3, 3, 121)
    mean, m2 = 0.4, 1.1
    fd = (mk.mean_field_potential(dw03, xs + h, mean, m2)
          - mk.mean_field_potential(dw03, xs - h, mean, m2)) / (2 * h)
    target = -mk.drift(dw03, xs, mean)
    assert np.max(np.abs(fd - target) / np.maximum(1, np.abs(target))) <= 1e-6


# ---- mean-field energy -------------------------------------------------------


def test_mean_field_energy_gaussian_quadratic():
    m = mk.standard_model(0.0, 1.0, potential=Potential.quadratic())
    rho = mk.DensityGrid1D.gaussian(-8, 8, 2048, 0.0, 1.0)
    assert mk.mean_field_energy(m, rho) == pytest.approx(0.5, abs=1e-3)


def test_mean_field_energy_narrow_bump_limit(dw03):
    vals = []
    for std in (0.1, 0.05, 0.025):
        rho = mk.DensityGrid1D.gaussian(-4, 4, 4096, 0.0, std)
        vals.append(abs(mk.mean_field_energy(dw03, rho)))
    # approaches V(0) = 0 as the bump narrows
    assert vals[2] < vals[0]
    assert vals[2] < 2e-3


def test_interaction_energy_equals_theta_times_variance(dw03):
    rho = mk.DensityGrid1D.gaussian_mixture(
        -5, 5, 2048, [(0.5, -1.2, 0.4), (0.5, 1.2, 0.4)])
    e_full = mk.mean_field_energy(dw03, rho)
    e_conf = mk.mean_field_energy(dw03.with_sigma2(dw03.sigma2), rho)
    zero_theta = mk.standard_model(0.0, 0.3)
    e_v = mk.mean_field_energy(zero_theta, rho)
    assert e_full - e_v == pytest.approx(dw03.theta * rho.variance(), rel=1e-10)
    assert e_full == pytest.approx(e_conf)


def test_mean_field_energy_rejects_unnormalized(dw03):
    rho = mk.DensityGrid1D.gaussian(-4, 4, 256, 0.0, 0.5)
    bad = mk.DensityGrid1D(-4, 4, 256, rho.values * 2.0)
    with pytest.raises(ValueError):
        mk.mean_field_energy(dw03, bad)


def test_one_sided_lipschitz_bound(dw03):
    # 2(E'(x) - E'(y))(x - y) >= -kappa1 |x-y|^2 with
    # kappa1 = 2 max(0, -(inf V'' + 2 theta)) = 0 for theta=1
    L, lam, kappa1 = mk.structural_constants(dw03)
    rng = np.random.default_rng(11)
    xs = rng.uniform(-3, 3, size=400)
    ys = rng.uniform(-3, 3, size=400)
    mean, m2 = 0.3, 1.0
    ex = -mk.drift(dw03, xs, mean)
    ey = -mk.drift(dw03, ys, mean)
    lhs = 2 * (ex - ey) * (xs - ys)
    assert np.min(lhs + kappa1 * (xs - ys) ** 2) >= -1e-12
