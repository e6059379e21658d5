"""Cell-averaged densities on truncated grids and measure diagnostics.

A DensityGrid1D stores nonnegative cell averages on [x_lo, x_hi]; all
integrals below are midpoint sums, which for smooth densities whose tails
decay inside the domain are accurate far beyond the stated tolerances.
The 2D phase-space variant stores (x, v) cell averages.

Diagnostics: entropy, relative entropy, Fisher information, free energy,
quantile-based Wasserstein-2, total variation, and the local equilibrium
map rho -> Gibbs(V + theta*(x - mean(rho))**2).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import ModelConfig, mean_field_energy

_LOG_TINY = np.log(1e-300)
_FLOOR = 1e-300


class GridError(ValueError):
    """Grid construction or grid compatibility failure."""


class UnderflowError(ArithmeticError):
    """Gibbs weights underflow double precision on the whole grid."""


def _check_values(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float).copy()
    if not np.all(np.isfinite(values)):
        raise GridError("density values must be finite")
    lo = values.min(initial=0.0)
    if lo < 0:
        # tolerate round-off negatives only
        if lo < -1e-15 * max(1.0, values.max(initial=0.0)):
            raise GridError("density values must be nonnegative")
        values = np.maximum(values, 0.0)
    return values


@dataclass
class DensityGrid1D:
    """Probability density on [x_lo, x_hi] stored as n cell averages."""

    x_lo: float
    x_hi: float
    n: int
    values: np.ndarray

    def __post_init__(self):
        if not self.x_lo < self.x_hi:
            raise GridError("need x_lo < x_hi")
        if self.n < 16:
            raise GridError("need at least 16 cells")
        values = _check_values(self.values)
        if values.shape != (self.n,):
            raise GridError("values must have shape (n,)")
        values.setflags(write=False)
        self.values = values

    # ---- geometry --------------------------------------------------------

    @property
    def dx(self) -> float:
        return (self.x_hi - self.x_lo) / self.n

    @property
    def centers(self) -> np.ndarray:
        return self.x_lo + (np.arange(self.n) + 0.5) * self.dx

    @property
    def edges(self) -> np.ndarray:
        return self.x_lo + np.arange(self.n + 1) * self.dx

    def same_grid(self, other: "DensityGrid1D") -> bool:
        return (self.n == other.n and self.x_lo == other.x_lo
                and self.x_hi == other.x_hi)

    # ---- moments ---------------------------------------------------------

    def mass(self) -> float:
        return float(self.values.sum() * self.dx)

    def normalize(self) -> "DensityGrid1D":
        m = self.values.sum() * self.dx
        if not m > 0:
            raise GridError("cannot normalize a zero density")
        return DensityGrid1D(self.x_lo, self.x_hi, self.n, self.values / m)

    def is_normalized(self) -> bool:
        return abs(self.mass() - 1.0) <= 1e-8

    def mean(self) -> float:
        return float(np.dot(self.centers, self.values) * self.dx)

    def variance(self) -> float:
        d = self.centers - self.mean()
        return float(np.dot(d * d, self.values) * self.dx)

    # ---- constructors ----------------------------------------------------

    @staticmethod
    def from_function(fn, x_lo: float, x_hi: float,
                      n: int) -> "DensityGrid1D":
        """fn sampled at the cell centers, clipped at 0 and normalized."""
        xs = DensityGrid1D(x_lo, x_hi, n, np.ones(n)).centers
        return DensityGrid1D(x_lo, x_hi, n,
                             np.maximum(fn(xs), 0.0)).normalize()

    @staticmethod
    def gaussian(x_lo: float, x_hi: float, n: int, mean: float,
                 std: float) -> "DensityGrid1D":
        dx = (x_hi - x_lo) / n
        if std < 2.0 * dx:
            warnings.warn("near-singular width regularized to 2*dx",
                          stacklevel=2)
            std = 2.0 * dx
        return DensityGrid1D.from_function(
            lambda x: np.exp(-0.5 * ((x - mean) / std) ** 2), x_lo, x_hi, n)

    @staticmethod
    def gaussian_mixture(x_lo: float, x_hi: float, n: int,
                         components) -> "DensityGrid1D":
        """components: sequence of (weight, mean, std)."""
        dx = (x_hi - x_lo) / n
        xs = x_lo + (np.arange(n) + 0.5) * dx
        vals = np.zeros(n)
        for weight, mean, std in components:
            std = float(std)
            if std < 2.0 * dx:
                warnings.warn("near-singular width regularized to 2*dx",
                              stacklevel=2)
                std = 2.0 * dx
            vals += (weight / (std * np.sqrt(2.0 * np.pi))
                     * np.exp(-0.5 * ((xs - mean) / std) ** 2))
        return DensityGrid1D(x_lo, x_hi, n, vals).normalize()


# ---- scalar diagnostics ----------------------------------------------------

def entropy(rho: DensityGrid1D) -> float:
    """int rho*log(rho), with the convention 0*log 0 = 0."""
    v = rho.values
    pos = v > 0
    return float(np.dot(v[pos], np.log(v[pos])) * rho.dx)


def relative_entropy(nu: DensityGrid1D, mu: DensityGrid1D) -> float:
    """KL divergence of nu from mu on a shared grid; +inf if not
    absolutely continuous at the cell level."""
    if not nu.same_grid(mu):
        raise GridError("relative_entropy needs a shared grid")
    pos = nu.values > 0
    if np.any(mu.values[pos] < _FLOOR):
        return float("inf")
    a = nu.values[pos]
    return float(np.dot(a, np.log(a) - np.log(mu.values[pos])) * nu.dx)


def fisher_information(nu: DensityGrid1D, mu: DensityGrid1D) -> float:
    """int |d/dx log(nu/mu)|**2 dnu by central differences.

    Cells (or stencil neighbors) below the positivity floor are excluded
    from the sum; they carry no nu-mass worth counting and their log
    ratios are meaningless.
    """
    if not nu.same_grid(mu):
        raise GridError("fisher_information needs a shared grid")
    if nu.values.min() < 0 or mu.values.min() < 0:
        raise GridError("fisher_information needs nonnegative densities")
    dx = nu.dx
    ok = (nu.values >= _FLOOR) & (mu.values >= _FLOOR)
    r = np.log(np.maximum(nu.values, _FLOOR)) - np.log(np.maximum(mu.values, _FLOOR))
    d = np.empty_like(r)
    d[1:-1] = (r[2:] - r[:-2]) / (2.0 * dx)
    d[0] = (r[1] - r[0]) / dx
    d[-1] = (r[-1] - r[-2]) / dx
    use = ok.copy()
    use[1:-1] &= ok[2:] & ok[:-2]
    use[0] &= ok[1]
    use[-1] &= ok[-2]
    return float(np.dot(d[use] ** 2, nu.values[use]) * dx)


def local_equilibrium(model: ModelConfig, rho: DensityGrid1D) -> DensityGrid1D:
    """Gibbs density of the frozen mean-field potential of rho.

    Proportional to exp(-(V(x) + theta*(x - mean(rho))**2)/sigma2) on the
    same grid; depends on rho only through its mean.
    """
    return equilibrium_for_mean(model, rho.mean(), rho.x_lo, rho.x_hi, rho.n)


def equilibrium_for_mean(model: ModelConfig, mean: float, x_lo: float,
                         x_hi: float, n: int, shift: float = 0.0) -> DensityGrid1D:
    """Discretized Gibbs density for a frozen mean, optionally translated."""
    probe = DensityGrid1D(x_lo, x_hi, n, np.ones(n))
    xs = probe.centers - shift
    e = model.potential.value(xs) + model.theta * (xs - mean) ** 2
    logu = -e / model.sigma2
    if logu.max() < _LOG_TINY:
        raise UnderflowError("temperature too low for grid precision")
    vals = np.exp(logu - logu.max())
    return DensityGrid1D(x_lo, x_hi, n, vals).normalize()


def free_energy(model: ModelConfig, rho: DensityGrid1D) -> float:
    """sigma2 * entropy + confinement + interaction energy."""
    return model.sigma2 * entropy(rho) + mean_field_energy(model, rho)


def effective_potential_on_grid(model: ModelConfig, rho: DensityGrid1D,
                                mean: float) -> float:
    """-sigma2 * log of the discrete Gibbs mass for a frozen mean.

    Computed with the same midpoint sum as the other grid diagnostics, so
    the exact discrete identity
        free_energy(rho) = sigma2*KL(rho | Gibbs(mean(rho))) + this(mean(rho))
    holds to round-off.
    """
    xs = rho.centers
    e = model.potential.value(xs) + model.theta * (xs - mean) ** 2
    logu = -e / model.sigma2
    peak = logu.max()
    return float(-model.sigma2 * (peak + np.log(np.sum(np.exp(logu - peak)) * rho.dx)))


def total_variation(nu: DensityGrid1D, mu: DensityGrid1D) -> float:
    if not nu.same_grid(mu):
        raise GridError("total_variation needs a shared grid")
    return float(0.5 * np.abs(nu.values - mu.values).sum() * nu.dx)


# ---- quantiles and Wasserstein-2 -------------------------------------------

def quantiles_at(rho: DensityGrid1D, u: np.ndarray) -> np.ndarray:
    """Inverse CDF with linear interpolation inside cells.

    The CDF of a cell-averaged density is piecewise linear and continuous,
    so the inverse is exact up to flat (zero-density) stretches, where the
    left end is returned.
    """
    u = np.asarray(u, dtype=float)
    w = rho.values * rho.dx
    cum = np.concatenate(([0.0], np.cumsum(w)))
    cum /= cum[-1]
    idx = np.searchsorted(cum, u, side="left")
    idx = np.clip(idx, 1, rho.n)
    dens = rho.values[idx - 1] / (rho.values.sum() * rho.dx)  # CDF slope
    left = cum[idx - 1]
    frac = np.zeros_like(u)
    good = dens > 0
    frac[good] = (u[good] - left[good]) / (dens[good] * rho.dx)
    frac = np.clip(frac, 0.0, 1.0)
    return rho.edges[idx - 1] + frac * rho.dx


def wasserstein2(nu: DensityGrid1D, mu: DensityGrid1D) -> float:
    """W2 via the 1D quantile formula on 4096 midpoint levels."""
    u = (np.arange(4096) + 0.5) / 4096
    qn = quantiles_at(nu, u)
    qm = quantiles_at(mu, u)
    return float(np.sqrt(np.mean((qn - qm) ** 2)))


# ---- phase space ------------------------------------------------------------

@dataclass
class PhaseGrid2D:
    """Probability density on an (x, v) grid, n_x * n_v cell averages."""

    x_lo: float
    x_hi: float
    n_x: int
    v_lo: float
    v_hi: float
    n_v: int
    values: np.ndarray

    def __post_init__(self):
        if not (self.x_lo < self.x_hi and self.v_lo < self.v_hi):
            raise GridError("need increasing bounds")
        if self.n_x < 16 or self.n_v < 16:
            raise GridError("need at least 16 cells per axis")
        values = _check_values(self.values)
        if values.shape != (self.n_x, self.n_v):
            raise GridError("values must have shape (n_x, n_v)")
        values.setflags(write=False)
        self.values = values

    @property
    def dx(self) -> float:
        return (self.x_hi - self.x_lo) / self.n_x

    @property
    def dv(self) -> float:
        return (self.v_hi - self.v_lo) / self.n_v

    @property
    def da(self) -> float:
        return self.dx * self.dv

    @property
    def x_centers(self) -> np.ndarray:
        return self.x_lo + (np.arange(self.n_x) + 0.5) * self.dx

    @property
    def v_centers(self) -> np.ndarray:
        return self.v_lo + (np.arange(self.n_v) + 0.5) * self.dv

    def mass(self) -> float:
        return float(self.values.sum() * self.da)

    def normalize(self) -> "PhaseGrid2D":
        m = self.values.sum() * self.da
        if not m > 0:
            raise GridError("cannot normalize a zero density")
        return PhaseGrid2D(self.x_lo, self.x_hi, self.n_x,
                           self.v_lo, self.v_hi, self.n_v, self.values / m)

    def x_marginal(self) -> DensityGrid1D:
        return DensityGrid1D(self.x_lo, self.x_hi, self.n_x,
                             self.values.sum(axis=1) * self.dv)

    def v_marginal(self) -> DensityGrid1D:
        return DensityGrid1D(self.v_lo, self.v_hi, self.n_v,
                             self.values.sum(axis=0) * self.dx)


def entropy_2d(rho: PhaseGrid2D) -> float:
    v = rho.values
    pos = v > 0
    return float(np.dot(v[pos], np.log(v[pos])) * rho.da)


def maxwellian(sigma2: float, v_lo: float, v_hi: float, n_v: int) -> DensityGrid1D:
    return DensityGrid1D.from_function(
        lambda v: np.exp(-0.5 * v * v / sigma2), v_lo, v_hi, n_v)


def kinetic_free_energy(model: ModelConfig, rho: PhaseGrid2D) -> float:
    """sigma2*entropy + mean-field energy of the x-marginal + int v**2/2."""
    if abs(rho.mass() - 1.0) > 1e-8:
        raise GridError("density must be normalized")
    vs = rho.v_centers
    kinetic = float(np.dot(rho.values.sum(axis=0) * rho.dx, 0.5 * vs * vs) * rho.dv)
    return (model.sigma2 * entropy_2d(rho)
            + mean_field_energy(model, rho.x_marginal()) + kinetic)


def local_equilibrium_kinetic(model: ModelConfig, rho: PhaseGrid2D) -> PhaseGrid2D:
    """Product of the positional Gibbs density and the Maxwellian in v."""
    gx = local_equilibrium(model, rho.x_marginal())
    gv = maxwellian(model.sigma2, rho.v_lo, rho.v_hi, rho.n_v)
    vals = np.outer(gx.values, gv.values)
    return PhaseGrid2D(rho.x_lo, rho.x_hi, rho.n_x,
                       rho.v_lo, rho.v_hi, rho.n_v, vals).normalize()


# ---- serialization ----------------------------------------------------------

def density_csv_text(rho: DensityGrid1D) -> str:
    lines = ["x,value"]
    for x, v in zip(rho.centers, rho.values):
        lines.append(f"{x:.17g},{v:.17g}")
    return "\n".join(lines) + "\n"


def phase_csv_text(rho: PhaseGrid2D) -> str:
    xs, vs = rho.x_centers, rho.v_centers
    lines = ["x,v,value"]
    for i, x in enumerate(xs):
        for j, v in enumerate(vs):
            lines.append(f"{x:.17g},{v:.17g},{rho.values[i, j]:.17g}")
    return "\n".join(lines) + "\n"


def density_from_csv(path, x_lo: float, x_hi: float, n: int) -> DensityGrid1D:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    if data.ndim != 2 or data.shape[0] != n:
        raise GridError("csv does not match the requested grid")
    return DensityGrid1D(x_lo, x_hi, n, data[:, 1]).normalize()
