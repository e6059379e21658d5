import numpy as np
import pytest

import mckeanflow as mk
from mckeanflow import ParticleEnsemble, ParticleError, Potential
import oracle_values as ov


def test_ensemble_validation():
    with pytest.raises(ParticleError):
        ParticleEnsemble("overdamped", np.array([1.0]))
    with pytest.raises(ParticleError):
        ParticleEnsemble("weird", np.zeros(4))
    with pytest.raises(ParticleError):
        ParticleEnsemble("overdamped", np.array([0.0, np.inf]))
    with pytest.raises(ParticleError):
        ParticleEnsemble("overdamped", np.zeros((8, 2)))
    # every overdamped step would ignore them
    with pytest.raises(ParticleError, match="no velocities"):
        ParticleEnsemble("overdamped", np.zeros(8), [1.0] * 3)
    ens = ParticleEnsemble("kinetic", np.zeros(8))
    assert ens.velocities.shape == (8,)
    for T in (0.0, -1.0, np.nan):
        with pytest.raises(ParticleError, match="T must be positive"):
            mk.run_particles(ens, mk.standard_model(1.0, 0.3), 1e-3, T)
    for step, mode in ((mk.step_overdamped, "overdamped"),
                       (mk.step_kinetic, "kinetic")):
        for dt in (0.0, np.nan):
            with pytest.raises(ParticleError, match="dt must be positive"):
                step(ParticleEnsemble(mode, np.zeros(8)),
                     mk.standard_model(1.0, 0.3), dt)


def test_seed_determinism():
    model = mk.standard_model(1.0, 0.3)
    runs = []
    for _ in range(2):
        ens = ParticleEnsemble.gaussian("overdamped", 256, 0.8, 0.3, seed=42)
        for _ in range(50):
            mk.step_overdamped(ens, model, 1e-3)
        runs.append(ens.positions.copy())
    assert np.array_equal(runs[0], runs[1])


def test_different_seeds_differ():
    a = ParticleEnsemble.gaussian("overdamped", 64, 0.0, 1.0, seed=1)
    b = ParticleEnsemble.gaussian("overdamped", 64, 0.0, 1.0, seed=2)
    assert not np.array_equal(a.positions, b.positions)


def test_seed_prefix_stability_across_n():
    # growing the ensemble must not perturb the first draws
    a = ParticleEnsemble.gaussian("overdamped", 64, 0.0, 1.0, seed=9)
    b = ParticleEnsemble.gaussian("overdamped", 256, 0.0, 1.0, seed=9)
    assert np.array_equal(a.positions, b.positions[:64])


def test_kinetic_draw_from_density(rho_star_512):
    # the velocities come from the stream gaussian draws them from, and the
    # positions are the prefix of a larger draw
    a, b = (ParticleEnsemble.from_density("kinetic", n, rho_star_512, seed=9,
                                          sigma2_velocity=0.3)
            for n in (64, 256))
    g = ParticleEnsemble.gaussian("kinetic", 64, 0.0, 1.0, seed=9,
                                  sigma2_velocity=0.3)
    assert np.std(a.velocities) > 0
    assert np.array_equal(a.velocities, g.velocities)
    assert np.array_equal(a.positions, b.positions[:64])


def test_overdamped_ou_stationary_variance():
    model = mk.standard_model(0.0, 1.0, potential=Potential.quadratic())
    out = []
    for seed in range(8):
        ens = ParticleEnsemble.gaussian("overdamped", 10000, 0.0, 1.0,
                                        seed=seed)
        for _ in range(2000):
            mk.step_overdamped(ens, model, 5e-3)
        out.append(ens.positions.var())
    assert np.mean(out) == pytest.approx(1.0, rel=0.05)


def test_strong_interaction_contracts_spread():
    # huge attraction, tiny confinement: spread collapses to the
    # mean-field scale sigma2/(1+2*theta)
    theta = 50.0
    model = mk.standard_model(theta, 1.0, potential=Potential.quadratic())
    ens = ParticleEnsemble.gaussian("overdamped", 4096, 0.0, 1.0, seed=3)
    for _ in range(4000):
        mk.step_overdamped(ens, model, 2e-4)
    assert ens.positions.var() == pytest.approx(1.0 / (1 + 2 * theta),
                                                rel=0.25)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overdamped_blowup_detection():
    model = mk.standard_model(0.0, 0.3)
    ens = ParticleEnsemble("overdamped", np.array([3.0, -3.0, 5.0, -5.0]))
    with pytest.raises(ParticleError):
        for _ in range(200):
            mk.step_overdamped(ens, model, 0.5)  # way too large for x^4


def test_kinetic_velocity_equilibration():
    model = mk.standard_model(0.0, 0.7, potential=Potential.quadratic())
    vars_ = []
    for seed in range(8):
        ens = ParticleEnsemble.gaussian("kinetic", 4096, 0.0, 0.5, seed=seed)
        for _ in range(4000):
            mk.step_kinetic(ens, model, 5e-3)
        vars_.append(ens.velocities.var())
    assert np.mean(vars_) == pytest.approx(0.7, rel=0.05)


def test_kinetic_position_variance_quadratic_potential():
    model = mk.standard_model(0.0, 0.5, potential=Potential.quadratic())
    vars_ = []
    for seed in range(8):
        ens = ParticleEnsemble.gaussian("kinetic", 4096, 0.0, 0.3, seed=seed,
                                        sigma2_velocity=0.5)
        for _ in range(4000):
            mk.step_kinetic(ens, model, 5e-3)
        vars_.append(ens.positions.var())
    assert np.mean(vars_) == pytest.approx(0.5, rel=0.05)


def test_kinetic_boundedness_long_run(dw03):
    ens = ParticleEnsemble.gaussian("kinetic", 256, 0.8, 0.3, seed=7,
                                    sigma2_velocity=0.3)
    log = mk.run_particles(ens, dw03, dt=1e-3, T=100.0, record_every=10000)
    assert np.all(np.isfinite(ens.positions))
    assert np.max(np.abs(ens.positions)) < 10.0
    assert np.max(np.abs(log.column("mean"))) < 5.0


def test_exchangeability_of_diagnostics(dw03, rho_star_512):
    ens = ParticleEnsemble.gaussian("overdamped", 512, 0.8, 0.4, seed=12)
    w2 = mk.empirical_w2(ens, rho_star_512)
    proxy = mk.free_energy_proxy(ens, dw03)
    perm = np.random.default_rng(0).permutation(512)
    ens2 = ParticleEnsemble("overdamped", ens.positions[perm])
    assert mk.empirical_w2(ens2, rho_star_512) == pytest.approx(w2, rel=1e-12)
    assert mk.free_energy_proxy(ens2, dw03) == pytest.approx(proxy, rel=1e-9)


# ---- nearest-neighbor entropy and the free-energy proxy -----------------------


def test_nn_entropy_gaussian():
    rng = np.random.default_rng(100)
    x = rng.standard_normal(8192)
    # estimator targets int rho ln rho, the entropy term of the free energy
    assert mk.nn_entropy(x) == pytest.approx(ov.GAUSS_ENTROPY_STD, abs=0.05)


def test_nn_entropy_uniform():
    rng = np.random.default_rng(101)
    x = rng.uniform(0.0, 2.0, 8192)
    assert mk.nn_entropy(x) == pytest.approx(-np.log(2.0), abs=0.05)


def test_nn_entropy_handles_duplicates():
    x = np.repeat(np.linspace(0, 1, 64), 4)
    assert np.isfinite(mk.nn_entropy(x))


def test_free_energy_proxy_gaussian_reference():
    model = mk.standard_model(0.0, 1.0, potential=Potential.quadratic())
    rng = np.random.default_rng(55)
    ens = ParticleEnsemble("overdamped", rng.standard_normal(4096))
    assert mk.free_energy_proxy(ens, model) == pytest.approx(
        ov.F_GAUSS_QUADRATIC, abs=0.05)


def test_free_energy_proxy_needs_enough_particles(dw03):
    ens = ParticleEnsemble("overdamped", np.linspace(-1, 1, 32))
    with pytest.raises(ParticleError):
        mk.free_energy_proxy(ens, dw03)


# ---- empirical transport distance ----------------------------------------------


def test_empirical_w2_quantile_points(rho_star_512):
    from mckeanflow.particles import quantiles_at
    n = 1024
    u = (np.arange(n) + 0.5) / n
    ens = ParticleEnsemble("overdamped", quantiles_at(rho_star_512, u))
    assert mk.empirical_w2(ens, rho_star_512) <= rho_star_512.dx


def test_empirical_w2_translation(rho_star_512):
    from mckeanflow.particles import quantiles_at
    n = 4096
    u = (np.arange(n) + 0.5) / n
    base = quantiles_at(rho_star_512, u)
    c = 0.6
    ens = ParticleEnsemble("overdamped", base + c)
    assert mk.empirical_w2(ens, rho_star_512) == pytest.approx(c, abs=0.02)


def test_empirical_w2_sampling_rate(rho_star_512):
    # i.i.d. samples: squared distance shrinks with N (1/N rate in 1d)
    gaps = {}
    for n in (256, 4096):
        vals = []
        for seed in range(16):
            ens = ParticleEnsemble.from_density("overdamped", n,
                                                rho_star_512, seed=seed)
            vals.append(mk.empirical_w2(ens, rho_star_512) ** 2)
        gaps[n] = float(np.median(vals))
    assert gaps[4096] < gaps[256]


def test_run_particles_log_columns(dw03, rho_star_512):
    ens = ParticleEnsemble.gaussian("overdamped", 256, 0.8, 0.3, seed=21)
    log = mk.run_particles(ens, dw03, dt=1e-3, T=0.2, record_every=50,
                           reference=rho_star_512)
    t = log.column("t")
    assert len(t) == 5  # t=0 plus 4 recorded samples
    assert np.all(np.diff(t) > 0)
    for name in ("mean", "var", "w2_ref", "fe_proxy"):
        assert np.all(np.isfinite(log.column(name)))
    text = log.to_csv_text()
    assert text.splitlines()[0] == "t,mean,var,w2_ref,fe_proxy"
