import numpy as np
import pytest

import mckeanflow as mk
from mckeanflow import CertificateError, Potential
from mckeanflow.certificates import (CertificateReport, CheckRecord,
                                     CoreConstants, build_certificate,
                                     lsi_eta, nonlinear_lsi_eta_bar, q_t,
                                     stability_radius, structural_constants)


def test_structural_constants_double_well(dw03):
    big_l, lam, kappa1 = structural_constants(dw03)
    assert (big_l, lam, kappa1) == pytest.approx((2.0, 1.0, 0.0))


def test_structural_constants_weak_interaction():
    # shallow coupling cannot cancel the convexity dip, so the drift is
    # only one-sided Lipschitz with a positive defect
    model = mk.standard_model(0.25, 0.3)
    big_l, lam, kappa1 = structural_constants(model)
    assert big_l == pytest.approx(0.5)
    # kappa1 = 2 max(0, -(inf V'' + 2 theta)) = 2 (1 - 0.5)
    assert kappa1 == pytest.approx(1.0, abs=1e-5)


def test_structural_constants_convex_case():
    model = mk.standard_model(0.5, 0.3, potential=Potential.quadratic())
    _, _, kappa1 = structural_constants(model)
    assert kappa1 == 0.0


def test_lsi_eta_gaussian_exact():
    # quadratic well, no interaction: the Gaussian constant is sharp
    model = mk.standard_model(0.0, 0.4, potential=Potential.quadratic())
    assert lsi_eta(model) == pytest.approx(0.4 / 2.0, rel=1e-9)


def test_lsi_eta_double_well_finite(dw03):
    eta = lsi_eta(dw03)
    assert np.isfinite(eta) and eta > 0
    # interaction restores convexity here: inf V'' + 2 theta = 1
    assert eta == pytest.approx(0.3 / 2.0, rel=1e-6)


def test_lsi_eta_four_well():
    # inf V'' = -5.0338 sits at the outer barriers x = +-2.3154
    four_well = Potential(
        np.array([0.0, 0.0, -18.0, 0.0, 49 / 4, 0.0, -7 / 3, 0.0, 1 / 8])
        / 36.0)
    # strong coupling convexifies: eta = sigma2 / (2 (inf V'' + 2 theta))
    convex = mk.standard_model(3.0, 0.3, potential=four_well)
    assert lsi_eta(convex) == pytest.approx(
        0.3 / (2.0 * (6.0 - 5.03381789)), rel=1e-7)
    # at theta=1 only the well-filling split certifies a constant
    assert lsi_eta(mk.standard_model(1.0, 0.3, potential=four_well)) \
        == pytest.approx(15.216, rel=1e-4)


def test_lsi_eta_improves_with_interaction():
    etas = [lsi_eta(mk.standard_model(th, 0.3)) for th in (1.0, 2.0)]
    assert etas[1] < etas[0]


def test_talagrand_from_lsi(dw03, m_plus, rho_star_512):
    # W2^2 <= 4 eta H for densities near the stationary point
    eta = lsi_eta(dw03)
    rng = np.random.default_rng(7)
    for _ in range(20):
        mean = m_plus + rng.uniform(-0.1, 0.1)
        std = 0.31 * np.exp(rng.uniform(-0.3, 0.3))
        g = rho_star_512
        vals = np.exp(-0.5 * ((g.centers - mean) / std) ** 2)
        rho = mk.DensityGrid1D(-4, 4, 512, vals).normalize()
        w2sq = mk.wasserstein2(rho, rho_star_512) ** 2
        h = mk.relative_entropy(rho, rho_star_512)
        assert w2sq <= 4.0 * eta * h * 1.05 + 1e-12


def test_eta_bar_finite_and_blows_up_near_origin(dw03):
    mid = nonlinear_lsi_eta_bar(dw03, 0.17)
    assert np.isfinite(mid) and mid > 0
    tight = nonlinear_lsi_eta_bar(dw03, 0.6)
    wide = nonlinear_lsi_eta_bar(dw03, 0.05)
    # shrinking the exclusion window weakens the contraction bound
    assert wide > mid > tight
    assert tight >= lsi_eta(dw03)


def test_eta_bar_rejects_supercritical():
    model = mk.standard_model(1.0, 1.0)
    with pytest.raises(CertificateError):
        nonlinear_lsi_eta_bar(model, 0.1)


def test_q_t_limits(dw03):
    c0 = CoreConstants(L=2.0, lam=1.0, kappa1=0.0, eta=0.15)
    # kappa1 = 0: the head term is exactly 1/t
    pref = 1.0 + c0.eta * c0.L + 4.0 * c0.eta * c0.lam / dw03.sigma2 \
        + 0.5 * (c0.L * c0.eta) ** 2
    t = 0.5
    expected = pref * (1.0 / t + 2.0 * t * c0.L ** 2
                       * np.exp(4.0 * c0.L * t))
    assert q_t(dw03, c0, t) == pytest.approx(expected, rel=1e-12)
    # continuity of the kappa1 -> 0 limit
    c1 = CoreConstants(L=2.0, lam=1.0, kappa1=1e-9, eta=0.15)
    assert q_t(dw03, c1, t) == pytest.approx(q_t(dw03, c0, t), rel=1e-6)


def test_q_t_small_time_scaling(dw03):
    c0 = CoreConstants(L=2.0, lam=1.0, kappa1=0.3, eta=0.15)
    # t * q_t stays bounded as t -> 0 (the 1/t head dominates)
    vals = [t * q_t(dw03, c0, t) for t in (1e-3, 1e-5, 1e-7)]
    assert np.allclose(vals, vals[0], rtol=1e-2)
    with pytest.raises(CertificateError):
        q_t(dw03, c0, 0.0)


def test_q_t_monotone_for_large_t(dw03):
    c0 = CoreConstants(L=2.0, lam=1.0, kappa1=0.0, eta=0.15)
    ts = np.linspace(1.0, 5.0, 30)
    qs = [q_t(dw03, c0, t) for t in ts]
    assert np.all(np.diff(qs) > 0)


def test_stability_radius_formulas():
    c0 = CoreConstants(L=2.0, lam=1.0, kappa1=0.0, eta=0.15)
    eta_bar, q1, delta = 178.0, 8.0e4, 0.68
    dp, c_rate = stability_radius(c0, eta_bar, q1, delta)
    root = np.sqrt(eta_bar * q1)
    assert dp == pytest.approx(delta / (2 * (2 * root + np.e ** 2)))
    assert c_rate == pytest.approx(np.exp(1 / eta_bar) * 4 * eta_bar * q1)
    assert 0 < dp < delta


@pytest.fixture(scope="module")
def unvalidated_report(dw03):
    return build_certificate(dw03, validate=False)


def test_build_certificate_constants(unvalidated_report, m_plus):
    rep = unvalidated_report
    assert rep.eta == pytest.approx(0.15, rel=1e-6)
    assert 0 < rep.alpha_eps < 1
    assert rep.eta_bar >= rep.eta
    assert 0 < rep.delta_prime < rep.delta
    assert rep.q1 > 0 and np.isfinite(rep.q1)
    assert rep.m_plus == pytest.approx(m_plus, abs=1e-9)
    assert rep.verdict == "NOT_VALIDATED"
    import json
    parsed = json.loads(rep.to_json())
    assert set(parsed) >= {"model", "constants", "checks", "verdict"}
    assert parsed["checks"] == []


def test_certificate_internal_consistency(unvalidated_report, dw03):
    rep = unvalidated_report
    assert rep.eta_bar == pytest.approx(
        nonlinear_lsi_eta_bar(dw03, rep.epsilon), rel=1e-9)
    assert rep.delta == pytest.approx(rep.m_plus - rep.epsilon, rel=1e-12)
    assert rep.epsilon == pytest.approx(0.2 * rep.m_plus, rel=1e-12)
    c0 = CoreConstants(L=rep.L, lam=rep.lam, kappa1=rep.kappa1, eta=rep.eta)
    assert rep.q1 == pytest.approx(q_t(dw03, c0, 1.0), rel=1e-12)
    dp, c_rate = stability_radius(c0, rep.eta_bar, rep.q1, rep.delta)
    assert rep.delta_prime == pytest.approx(dp, rel=1e-12)
    assert rep.C_rate == pytest.approx(c_rate, rel=1e-12)


def test_build_certificate_scans_fixed_points_once(dw03, monkeypatch):
    # m_plus from the certificate's own scan feeds the contraction sweep
    import mckeanflow.certificates as certs
    import mckeanflow.meanfield as mf
    calls = []
    scan = mf.find_fixed_points

    def counted(sc):
        calls.append(sc)
        return scan(sc)

    monkeypatch.setattr(mf, "find_fixed_points", counted)
    monkeypatch.setattr(certs, "find_fixed_points", counted)
    rep = build_certificate(dw03, validate=False)
    assert len(calls) == 1
    alpha = mk.contraction_factor(mk.SelfConsistency1D(dw03), rep.epsilon)
    assert rep.alpha_eps == alpha
    assert len(calls) == 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", [1, 20240])
def test_certificate_start_states_clear_the_walls(dw03, seed):
    # 256 cells on [-4.5, 4.5]: the widest draws used to leave up to 1.6e-9
    # of mass in the edge cells, past the solver's 1e-10 boundary warning
    report = build_certificate(dw03, seed=seed, grid_n=256, n_runs=1)
    assert report.verdict == "VALID"


def test_certificate_json_names():
    # every constant under its JSON name (lambda for lam), and each check
    # entry with exactly the CheckRecord fields
    import json
    names = ("L", "lambda", "kappa1", "eta", "alpha_eps", "eta_bar", "q1",
             "delta", "delta_prime", "C_rate")
    values = {name: float(k + 1) for k, name in enumerate(names)}
    fields = {("lam" if name == "lambda" else name): v
              for name, v in values.items()}
    report = CertificateReport(
        theta=1.0, sigma2=0.3, epsilon=0.1, m_plus=0.9, **fields,
        checks=[CheckRecord("talagrand", True, 50, 0.6, "detail")])
    parsed = json.loads(report.to_json())
    assert parsed["constants"] == values
    assert parsed["checks"] == [{"name": "talagrand", "passed": True,
                                 "n_samples": 50, "worst_ratio": 0.6,
                                 "detail": "detail"}]


def test_certificate_independent_of_earlier_calls(dw03):
    # the same certificate after the mean map has served other models
    first = build_certificate(dw03, grid_n=256, n_runs=1).to_json()
    mk.find_fixed_points(mk.SelfConsistency1D(mk.standard_model(2.0, 0.2)))
    mk.critical_sigma2(mk.standard_model(1.0, 0.5), (0.3, 1.0))
    assert build_certificate(dw03, grid_n=256, n_runs=1).to_json() == first
