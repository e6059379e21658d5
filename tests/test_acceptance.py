"""End-to-end acceptance checks, one test per shipped claim.

Each test exercises the package through its public interface at the
tolerances promised in the README's property table; `pytest -v` gives a
single pass/fail line per claim.  The expensive fixtures (validated
certificate, critical-temperature model) are module-scoped so their cost
is paid once.
"""

import json
import time

import numpy as np
import pytest

import mckeanflow as mk
from mckeanflow import (DensityGrid1D, GranularSolver, ParticleEnsemble,
                        PhaseGrid2D, VfpSolver)
from mckeanflow.certificates import build_certificate
from mckeanflow.cli import main
from mckeanflow.meanfield import (SelfConsistency1D, critical_sigma2,
                                  degeneracy_bound, discrete_fixed_mean,
                                  equilibrium_for_mean, find_fixed_points,
                                  localization_jacobian)
from conftest import random_mixture


@pytest.fixture(scope="module")
def certificate(dw03):
    started = time.perf_counter()
    report = build_certificate(dw03)
    return report, time.perf_counter() - started


@pytest.fixture(scope="module")
def crit():
    model0 = mk.standard_model(1.0, 0.5)
    s2c = critical_sigma2(model0, (0.3, 1.0))
    return s2c, mk.standard_model(1.0, s2c)


def test_c01_phase_transition():
    started = time.perf_counter()

    def n_roots(s2):
        return len(find_fixed_points(
            SelfConsistency1D(mk.standard_model(1.0, s2))).points)

    assert n_roots(1.0) == 1
    assert n_roots(0.3) == 3
    s2c = critical_sigma2(mk.standard_model(1.0, 0.5), (0.3, 1.0))
    assert 0.3 < s2c < 1.0
    assert n_roots(s2c * 0.99) == 3
    assert n_roots(s2c * 1.01) == 1
    assert time.perf_counter() - started < 30.0


def test_c02_derivative_identities(dw03, sc03):
    started = time.perf_counter()
    h = 1e-4
    for m in np.linspace(-2.0, 2.0, 101):
        fp_fd = (sc03.mean_map(m + h) - sc03.mean_map(m - h)) / (2 * h)
        fp_formula = sc03.mean_map_derivative(m)
        assert abs(fp_fd - fp_formula) / abs(fp_formula) <= 1e-5
        gp_fd = (sc03.effective_potential(m + h)
                 - sc03.effective_potential(m - h)) / (2 * h)
        gp_formula = 2.0 * dw03.theta * (m - sc03.mean_map(m))
        assert abs(gp_fd - gp_formula) <= 1e-5 * (1.0 + abs(gp_formula))
    assert time.perf_counter() - started < 10.0


def test_c03_dissipation_identity(dw03):
    # d/dt F = -sigma^4 * I(rho | Gamma(rho)) along the flow; checked with
    # centered differences of the logged free energy against the logged
    # relative Fisher information
    started = time.perf_counter()
    rho0 = DensityGrid1D.gaussian(-4.0, 4.0, 2048, 0.05, 0.35)
    solver = GranularSolver(dw03, rho0)  # dt defaults to max_dt
    log = mk.granular_run(solver, T=10.0,
                          record_every=max(1, round(0.0324 / solver.dt)))
    t = log.column("t")
    f = log.column("F")
    fisher = log.column("Fisher")
    s4 = dw03.sigma2 ** 2
    sel = np.where((t >= 1.0) & (t <= 10.0))[0]
    worst = 0.0
    for i in sel[1:-1]:
        slope = (f[i + 1] - f[i - 1]) / (t[i + 1] - t[i - 1])
        target = -s4 * fisher[i]
        worst = max(worst, abs(slope - target) / abs(target))
    assert worst <= 0.02
    assert time.perf_counter() - started < 120.0


def test_c04_subcritical_exponential_rates(dw03, m_plus, rho_star_512,
                                           certificate):
    started = time.perf_counter()
    report, _ = certificate
    std_star = float(np.sqrt(rho_star_512.variance()))
    rho0 = DensityGrid1D.gaussian(-4.0, 4.0, 512, m_plus + 0.1, std_star)
    m_d = discrete_fixed_mean(dw03, -4.0, 4.0, 512, m_plus)
    ref = equilibrium_for_mean(dw03, m_d, -4.0, 4.0, 512)
    f_star = mk.free_energy(dw03, ref)
    solver = GranularSolver(dw03, rho0)
    log = mk.granular_run(solver, T=20.0,
                          record_every=max(1, round(0.2044 / solver.dt)),
                          reference=ref)
    t = log.column("t")
    sel = (t >= 2.0) & (t <= 20.0)
    rates = {}
    for name, series in (("W2", log.column("W2_ref")),
                         ("TV", log.column("TV_ref")),
                         ("F_gap", log.column("F") - f_star)):
        keep = sel
        if name == "F_gap":
            # the gap decays at twice the W2 rate and reaches the
            # roundoff floor of the free-energy quadrature near t=11;
            # fit only the resolvable part of the window
            keep = sel & (series > 1e-12)
            assert keep.sum() >= 40
        fit = mk.fit_exponential(t[keep], series[keep])
        assert fit.r_squared >= 0.99, name
        rates[name] = fit.rate
    assert rates["F_gap"] >= (1.0 - 0.10) / report.eta_bar
    assert time.perf_counter() - started < 180.0


def test_c05_critical_algebraic_decay(crit):
    started = time.perf_counter()
    s2c, model = crit
    rho0 = DensityGrid1D.gaussian(-5.0, 5.0, 512, 0.8, 0.6)
    ref = equilibrium_for_mean(model, 0.0, -5.0, 5.0, 512)
    solver = GranularSolver(model, rho0)
    log = mk.granular_run(solver, T=200.0,
                          record_every=max(1, round(1.36 / solver.dt)),
                          reference=ref)
    t = log.column("t")
    sel = (t >= 10.0) & (t <= 200.0)
    env = t[sel] ** (1.0 / 3.0) * (log.column("W2_ref")[sel]
                                   + log.column("TV_ref")[sel])
    assert env.max() / env.min() <= 2.0

    means = np.abs(log.column("mean"))
    fit_pkg = mk.fit_power(t[sel], means[sel])
    assert fit_pkg.rate >= 0.33

    # brute-force cubic-flow oracle with the fitted degeneracy coefficient
    s = degeneracy_bound(SelfConsistency1D(model)).cubic_coefficient
    m0 = rho0.mean()
    m_ode = np.abs(m0) / np.sqrt(1.0 + 2.0 * s * m0 ** 2 * t[sel])
    fit_ode = mk.fit_power(t[sel], m_ode)
    assert abs(fit_pkg.rate - fit_ode.rate) <= 0.15 * fit_ode.rate
    assert time.perf_counter() - started < 300.0


def test_c06_counterexample_sign_change(tmp_path):
    started = time.perf_counter()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epsilon": 0.05}))
    out_dir = tmp_path / "out"
    assert main(["counterexample", "--config", str(cfg),
                 "--out", str(out_dir)]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["t_cross"] is not None
    assert report["t_cross"] < 5.0
    assert report["initial_mean"] > 0 > report["final_mean"]
    assert report["free_energy_drop"] > 0
    assert time.perf_counter() - started < 60.0


def test_c07_entropy_sandwich(dw03, m_plus):
    started = time.perf_counter()
    lam = dw03.theta
    s2 = dw03.sigma2
    rho_star = mk.equilibrium_for_mean(dw03, m_plus, -4.0, 4.0, 512)
    f_star = mk.free_energy(dw03, rho_star)
    rng = np.random.default_rng(2024)
    checked_lower = 0
    for _ in range(50):
        mu = random_mixture(rng)
        nu = random_mixture(rng)
        f_mu = mk.free_energy(dw03, mu)
        f_nu = mk.free_energy(dw03, nu)
        h_loc = mk.relative_entropy(mu, mk.local_equilibrium(dw03, mu))
        assert (f_mu <= f_nu + s2 * h_loc
                + lam * mk.wasserstein2(mu, nu) ** 2 + 1e-6)
        h_star = mk.relative_entropy(mu, rho_star)
        if np.isfinite(h_star):
            checked_lower += 1
            assert (f_star + s2 * h_star
                    <= f_mu + lam * mk.wasserstein2(mu, rho_star) ** 2
                    + 1e-6)
    assert checked_lower >= 40
    assert time.perf_counter() - started < 30.0


def test_c08_certificate_valid(certificate):
    report, elapsed = certificate
    assert report.verdict == "VALID"
    names = {c.name for c in report.checks}
    assert names == {"talagrand", "nonlinear_lsi", "q1_regularization",
                     "decay_envelope"}
    assert all(c.passed for c in report.checks)
    assert all(c.n_samples > 0 for c in report.checks)
    assert json.loads(report.to_json())["verdict"] == "VALID"
    assert elapsed < 300.0


def test_c09_kinetic_convergence():
    started = time.perf_counter()
    model = mk.standard_model(1.0, 1.0)
    n_x = n_v = 64
    x_lo, x_hi, v_lo, v_hi = -3.5, 3.5, -4.0, 4.0
    rho_x = equilibrium_for_mean(model, 0.0, x_lo, x_hi, n_x)
    vg = np.linspace(v_lo, v_hi, n_v + 1)
    vc = 0.5 * (vg[:-1] + vg[1:])
    mv = np.exp(-0.5 * vc ** 2 / model.sigma2)
    mv /= mv.sum() * (vg[1] - vg[0])

    # settle the splitting's own fixed point first, then perturb it
    pre = VfpSolver(model, PhaseGrid2D(x_lo, x_hi, n_x, v_lo, v_hi, n_v,
                                       np.outer(rho_x.values, mv)))
    while pre.time < 40.0:
        pre.step()
    steady = pre.state
    x_ref = steady.x_marginal()

    shifted = equilibrium_for_mean(model, 0.0, x_lo, x_hi, n_x, shift=0.3)
    solver = VfpSolver(model, PhaseGrid2D(
        x_lo, x_hi, n_x, v_lo, v_hi, n_v,
        np.outer(shifted.values, mv)))
    log = mk.vfp_run(solver, T=20.0, record_every=500, reference=x_ref)

    f = log.column("F")
    assert np.all(np.diff(f) <= 1e-6 * (1.0 + np.abs(f[:-1])))

    t = log.column("t")
    sel = (t >= 2.0) & (t <= 20.0)
    fit = mk.fit_exponential(t[sel], log.column("W2_ref")[sel])
    assert fit.r_squared >= 0.98

    st = solver.state
    v = st.v_centers
    vvar = float(np.sum(st.values * v[None, :] ** 2) * st.da
                 - (np.sum(st.values * v[None, :]) * st.da) ** 2)
    assert vvar == pytest.approx(model.sigma2, rel=0.02)
    assert time.perf_counter() - started < 600.0


def test_c10_localization_limit(dw03):
    started = time.perf_counter()
    vals = [localization_jacobian(dw03.with_sigma2(s2), 1.0)
            for s2 in (0.2, 0.1, 0.05)]
    assert all(v < 1.0 for v in vals)
    assert vals[0] > vals[1] > vals[2] > 0.5
    assert abs(vals[2] - 0.5) < 0.1
    assert time.perf_counter() - started < 60.0


def test_c11_particle_free_energy(dw03, m_plus, rho_star_512):
    started = time.perf_counter()
    f_star = mk.free_energy(dw03, rho_star_512)
    std_star = float(np.sqrt(rho_star_512.variance()))
    dt, T = 1e-3, 10.0
    seeds = range(8)

    def final_proxy_gap(n, seed):
        ens = ParticleEnsemble.gaussian("overdamped", n, m_plus + 0.1,
                                        std_star, seed=seed)
        log = mk.run_particles(ens, dw03, dt=dt, T=T, record_every=100)
        return ens, log, abs(mk.free_energy_proxy(ens, dw03) - f_star)

    # N-sweep: median proxy gap must not grow with N
    gaps = {}
    heavy = {}
    for n in (256, 1024, 4096):
        per_seed = []
        for seed in seeds:
            ens, log, gap = final_proxy_gap(n, seed)
            per_seed.append(gap)
            if n == 4096:
                heavy[seed] = log
        gaps[n] = float(np.median(per_seed))
    assert gaps[4096] <= 0.1
    assert gaps[256] >= gaps[1024] >= gaps[4096] or gaps[256] >= gaps[4096]

    # the ensemble mean must track the PDE mean
    rho0 = DensityGrid1D.gaussian(-4.0, 4.0, 512, m_plus + 0.1, std_star)
    solver = GranularSolver(dw03, rho0)
    pde_log = mk.granular_run(solver, T=T,
                              record_every=max(1, round(0.1022 / solver.dt)))
    t_p = heavy[0].column("t")
    pde_mean = np.interp(t_p, pde_log.column("t"), pde_log.column("mean"))
    med_mean = np.median(np.stack([heavy[s].column("mean")
                                   for s in seeds]), axis=0)
    rms = float(np.sqrt(np.mean((med_mean - pde_mean) ** 2)))
    assert rms <= 0.05
    assert time.perf_counter() - started < 600.0


def test_c12_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": {"theta": 1.0, "sigma2": 0.3},
        "n_particles": 256,
        "seeds": [11, 12],
        "dt": 1e-2,
        "T": 0.5,
        "record_every": 10,
    }))
    digests = []
    for tag in ("first", "second"):
        out_dir = tmp_path / tag
        assert main(["particles-run", "--config", str(cfg), "--threads",
                     "1", "--out", str(out_dir)]) == 0
        blob = {p.name: p.read_bytes() for p in out_dir.iterdir()
                if p.name != "manifest.json"}
        digests.append(blob)
    assert digests[0].keys() == digests[1].keys()
    for name in digests[0]:
        assert digests[0][name] == digests[1][name], name
