"""Interacting-particle simulators.

Overdamped system of N coupled diffusions:

    dX_i = ( -V'(X_i) - 2*theta*(X_i - Xbar) ) dt + sqrt(2*sigma2) dB_i,

kinetic variant with velocities:

    dX_i = V_i dt
    dV_i = ( -V'(X_i) - 2*theta*(X_i - Xbar) - V_i ) dt + sqrt(2*sigma2) dB_i.

Both use plain Euler-Maruyama.  Noise comes from counter-based Philox
streams keyed by (seed, step index): trajectories are bit-reproducible,
and because each step draws its normals as one sequential block, the
first N draws of a larger ensemble coincide with a smaller ensemble's
draws, so particle-count sweeps share their noise prefix.

Diagnostics: empirical moments, sorted-sample Wasserstein-2 against a
grid reference, and a per-particle free-energy proxy combining the exact
empirical energy with a first-nearest-neighbor entropy estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import digamma

from .analysis import TrajectoryLog, sampled_run
from .grid import DensityGrid1D, quantiles_at
from .model import ModelConfig, drift

_INIT_STREAM = 2 ** 62  # reserved step key for the initial draw


class ParticleError(ArithmeticError):
    pass


def _stream(seed: int, step: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, step]))


@dataclass
class ParticleEnsemble:
    """State of an N-particle system: positions of shape (N,), and
    velocities of the same shape for the kinetic system or None for the
    overdamped one."""

    positions: np.ndarray
    velocities: np.ndarray | None = None
    rng_seed: int = 0
    time: float = 0.0
    steps: int = 0

    def __post_init__(self):
        self.positions = np.array(self.positions, dtype=float)
        if self.positions.ndim != 1:
            raise ParticleError("positions must be a 1d array")
        if self.positions.shape[0] < 2:
            raise ParticleError("need at least 2 particles")
        if not np.all(np.isfinite(self.positions)):
            raise ParticleError("positions must be finite")
        if self.velocities is not None:
            self.velocities = np.array(self.velocities, dtype=float)
            if self.velocities.shape != self.positions.shape:
                raise ParticleError("velocity shape mismatch")
            if not np.all(np.isfinite(self.velocities)):
                raise ParticleError("velocities must be finite")

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    # ---- constructors ----------------------------------------------------

    @classmethod
    def gaussian(cls, n: int, mean: float, std: float, seed: int,
                 sigma2_velocity: float | None = None) -> "ParticleEnsemble":
        x = mean + std * _stream(seed, _INIT_STREAM).standard_normal(n)
        return cls(x, _velocities(n, seed, sigma2_velocity), rng_seed=seed)

    @classmethod
    def from_density(cls, n: int, rho: DensityGrid1D, seed: int,
                     sigma2_velocity: float | None = None
                     ) -> "ParticleEnsemble":
        """Inverse-CDF draw of n positions from a grid density."""
        x = quantiles_at(rho, _stream(seed, _INIT_STREAM).random(n))
        return cls(x, _velocities(n, seed, sigma2_velocity), rng_seed=seed)


def _velocities(n: int, seed: int,
                sigma2_velocity: float | None) -> np.ndarray | None:
    """Initial velocities, N(0, sigma2_velocity) each, or None."""
    if sigma2_velocity is None:
        return None
    if not sigma2_velocity >= 0:
        raise ParticleError("sigma2_velocity must be non-negative")
    # separate stream so position draws stay N-prefix-stable
    return (np.sqrt(sigma2_velocity)
            * _stream(seed, _INIT_STREAM + 1).standard_normal(n))


def _step(ens: ParticleEnsemble, model: ModelConfig, dt: float,
          kinetic: bool) -> None:
    """One Euler-Maruyama step of the system of this kind, which must be
    the ensemble's; the coupling mean is computed once."""
    if (ens.velocities is not None) != kinetic:
        raise ParticleError("the %s step needs an ensemble %s velocities" % (
            ("overdamped", "without"), ("kinetic", "with"))[kinetic])
    if not dt > 0:
        raise ParticleError("dt must be positive")
    x, v = ens.positions, ens.velocities
    force = drift(model, x, x.mean())
    noise = _stream(ens.rng_seed, ens.steps).standard_normal(x.shape)
    if kinetic:
        x += dt * v
        v += dt * (force - v) + np.sqrt(2.0 * model.sigma2 * dt) * noise
    else:
        x += dt * force + np.sqrt(2.0 * model.sigma2 * dt) * noise
    if not np.all(np.isfinite(x)) or kinetic and not np.all(np.isfinite(v)):
        raise ParticleError("non-finite coordinates: the step size is too "
                            "large for this potential")
    ens.time += dt
    ens.steps += 1


def step_overdamped(ens: ParticleEnsemble, model: ModelConfig,
                    dt: float) -> None:
    _step(ens, model, dt, kinetic=False)


def step_kinetic(ens: ParticleEnsemble, model: ModelConfig,
                 dt: float) -> None:
    _step(ens, model, dt, kinetic=True)


# ---- diagnostics -------------------------------------------------------------


def nn_entropy(samples: np.ndarray) -> float:
    """Kozachenko-Leonenko estimate of int rho*log(rho) from 1D samples.

    First-nearest-neighbor form: the differential entropy estimate is
    psi(N) - psi(1) + mean(log(2*d_i)) with d_i the nearest-neighbor
    distance; this returns its negative (the sign entering the free
    energy).  Coincident points are separated by a 1e-12 floor.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    if n < 8:
        raise ParticleError("need at least 8 samples")
    gaps = np.diff(x)
    d = np.empty(n)
    d[0] = gaps[0]
    d[-1] = gaps[-1]
    d[1:-1] = np.minimum(gaps[:-1], gaps[1:])
    d = np.maximum(d, 1e-12)
    h = digamma(n) - digamma(1) + float(np.mean(np.log(2.0 * d)))
    return -h


def free_energy_proxy(ens: ParticleEnsemble, model: ModelConfig) -> float:
    """Per-particle free-energy estimate from the empirical measure.

    Energy part is exact on samples: mean V(X_i) + theta * Var_emp.
    The entropic part uses the nearest-neighbor estimator on the pooled
    1D marginal, which is a biased proxy for the per-particle entropy of
    the N-body law; under approximate exchangeable independence the bias
    is small, and that caveat is inherited by every consumer.
    """
    if ens.n < 64:
        raise ParticleError("need at least 64 particles")
    x = ens.positions
    energy = float(np.mean(model.potential.value(x))) + model.theta * float(
        np.var(x))
    return energy + model.sigma2 * nn_entropy(x)


def empirical_w2(ens: ParticleEnsemble, reference: DensityGrid1D) -> float:
    """Quantile coupling of sorted samples against reference quantiles at
    levels (i - 1/2)/N; returns the RMS gap."""
    x = np.sort(ens.positions)
    u = (np.arange(ens.n) + 0.5) / ens.n
    q = quantiles_at(reference, u)
    return float(np.sqrt(np.mean((x - q) ** 2)))


def run_particles(ens: ParticleEnsemble, model: ModelConfig, dt: float,
                  T: float, record_every: int = 100,
                  reference: DensityGrid1D | None = None) -> TrajectoryLog:
    """Advance the ensemble to time T, logging empirical diagnostics in the
    columns t, mean, var, w2_ref (nan without a reference) and fe_proxy,
    which needs at least 64 particles."""
    if not T > 0:
        raise ParticleError("T must be positive")
    stepper = step_overdamped if ens.velocities is None else step_kinetic
    log = TrajectoryLog(("t", "mean", "var", "w2_ref", "fe_proxy"))

    def sample() -> None:
        x = ens.positions
        w2 = empirical_w2(ens, reference) if reference is not None else np.nan
        log.append(ens.time, np.mean(x), np.var(x), w2,
                   free_energy_proxy(ens, model))

    sampled_run(lambda: stepper(ens, model, dt), sample, dt, T, record_every)
    return log
