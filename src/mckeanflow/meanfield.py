"""Parametric self-consistency analysis of the stationary equation.

The Gibbs map rho -> exp(-(V + theta*(x - mean(rho))**2)/sigma2)/Z closes
over one scalar parameter: the family rho_m indexed by the frozen mean m.
Stationary densities correspond to fixed points of the scalar map

    f(m) = mean of rho_m,

and the one-dimensional reduction of the free energy along the family is

    g(m) = -sigma2 * log int exp(-(V(x) + theta*(x-m)**2)/sigma2) dx,

with g'(m) = 2*theta*(m - f(m)).  This module evaluates f, f', g with
composite Gauss-Legendre quadrature, locates fixed points, the critical
temperature where f'(0) = 1, contraction factors toward the outer fixed
point, the cubic degeneracy at the critical temperature, and the
low-temperature localization of fixed points near potential minima.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .grid import DensityGrid1D, equilibrium_for_mean
from .model import ModelConfig, ModelError

_TAIL_LOG = np.log(1e-14)


class MeanFieldError(ValueError):
    """Arguments outside the domain of a self-consistency operation."""


class QuadratureError(ArithmeticError):
    """Quadrature truncation could not satisfy the tail bound."""


class LocalizationError(MeanFieldError):
    """No local fixed point exists near the requested potential minimum."""


class SelfConsistency1D:
    """Quadrature-backed evaluation of the local-equilibrium family.

    Composite Gauss-Legendre quadrature with 40 nodes on each panel of
    length 0.1 (400 per unit length) on [-R, R], starting at R = 6.  R
    grows automatically until the integrand at the boundary is below 1e-14
    relative to its peak for every queried m, so moments and log-partition
    values carry no visible truncation bias.
    """

    def __init__(self, model: ModelConfig):
        self.model = model
        self._panel = 0.1
        self._build(6.0)

    def _build(self, radius: float) -> None:
        n_panels = int(np.ceil(2.0 * radius / self._panel))
        z, w = np.polynomial.legendre.leggauss(40)
        lefts = -radius + np.arange(n_panels) * self._panel
        half = 0.5 * self._panel
        nodes = (lefts[:, None] + half * (z[None, :] + 1.0)).ravel()
        weights = np.tile(w * half, n_panels)
        self.radius = radius
        self._nodes = nodes
        self._weights = weights
        self._v_nodes = self.model.potential.value(nodes)

    def _log_density(self, m: float) -> np.ndarray:
        x = self._nodes
        th = self.model.theta
        return -(self._v_nodes + th * (x - m) ** 2) / self.model.sigma2

    def _ensure_radius(self, m: float) -> tuple[np.ndarray, float]:
        for _ in range(200):
            logu = self._log_density(m)
            peak = float(logu.max())
            edge = max(logu[0], logu[-1])
            if edge - peak < _TAIL_LOG and abs(m) + 1.0 < self.radius:
                return logu - peak, peak
            self._build(max(self.radius * 1.5, abs(m) + 4.0))
        raise QuadratureError("tail bound not reachable; integrand may "
                              "not be confining")

    def moments(self, m: float) -> tuple[float, float, float]:
        """(log-partition value, mean, variance) of rho_m.

        The peak shift used for overflow safety is added back, so the
        first entry is the true log Z.
        """
        shifted, peak = self._ensure_radius(m)
        x = self._nodes
        u = self._weights * np.exp(shifted)
        z = u.sum()
        mean = float(np.dot(x, u) / z)
        var = float(np.dot((x - mean) ** 2, u) / z)
        return peak + float(np.log(z)), mean, var

    # ---- the scalar reduction ---------------------------------------------

    def mean_map(self, m: float) -> float:
        """f(m): mean of the Gibbs density with frozen mean m."""
        return self.moments(m)[1]

    def mean_map_derivative(self, m: float) -> float:
        """f'(m) = (2*theta/sigma2) * Var(rho_m), a covariance identity."""
        _, _, var = self.moments(m)
        return 2.0 * self.model.theta / self.model.sigma2 * var

    def effective_potential(self, m: float) -> float:
        """g(m) = -sigma2 * log Z(m); g'(m) = 2*theta*(m - f(m))."""
        logz, _, _ = self.moments(m)
        return -self.model.sigma2 * logz

    def density(self, m: float, x_lo: float, x_hi: float,
                n: int) -> DensityGrid1D:
        """Member rho_m discretized on a grid (same formula as the grid
        module's local equilibrium at frozen mean m)."""
        return equilibrium_for_mean(self.model, m, x_lo, x_hi, n)


# ---- fixed points ------------------------------------------------------------


@dataclass(frozen=True)
class FixedPoint:
    m: float
    fprime: float
    # flow stability: f' < 1 means the effective potential curves up
    stable: bool
    # |f' - 1| below threshold: tangential (pitchfork birth) root
    degenerate: bool
    # |f'| < 1: stability under direct iteration of f
    iteration_stable: bool


@dataclass
class FixedPointSet:
    points: list[FixedPoint] = field(default_factory=list)

    @property
    def means(self) -> list[float]:
        return [p.m for p in self.points]

    def positive_root(self) -> FixedPoint:
        pos = [p for p in self.points if p.m > 1e-8]
        if not pos:
            raise MeanFieldError("no positive fixed point")
        return max(pos, key=lambda p: p.m)


def find_fixed_points(sc: SelfConsistency1D) -> FixedPointSet:
    """All roots of f(m) - m, bracketed on a scan grid then bisected to
    1e-12.  A root with |f' - 1| < 1e-4 is flagged degenerate.

    The scan interval starts at [-2, 2] and is expanded until f - id has
    the sign of -m at both ends, which always happens because f is bounded.
    """
    lo, hi = -2.0, 2.0
    h = lambda m: sc.mean_map(m) - m
    for _ in range(60):
        if h(lo) > 0 and h(hi) < 0:
            break
        lo, hi = 1.5 * lo - 1.0, 1.5 * hi + 1.0
    else:
        raise MeanFieldError("could not bracket all fixed points")
    grid = np.linspace(lo, hi, 2048)
    vals = np.array([h(m) for m in grid])
    roots: list[float] = []
    for i in range(len(grid) - 1):
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            roots.append(float(grid[i]))
        elif a * b < 0:
            roots.append(float(brentq(h, grid[i], grid[i + 1], xtol=1e-12)))
    if vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    out = FixedPointSet()
    for r in sorted(roots):
        if out.points and abs(r - out.points[-1].m) < 1e-9:
            continue
        fp = sc.mean_map_derivative(r)
        out.points.append(FixedPoint(
            m=r, fprime=fp, stable=fp < 1.0,
            degenerate=abs(fp - 1.0) < 1e-4,
            iteration_stable=abs(fp) < 1.0))
    return out


def critical_sigma2(model: ModelConfig, bracket=(0.3, 1.0)) -> float:
    """Temperature where f'(0) = 1, by bisection in sigma2 to 1e-8.

    Requires f'(0) > 1 at the low end of the bracket and < 1 at the high
    end; f'(0) is strictly decreasing in sigma2 in the confining case.
    """
    lo, hi = float(bracket[0]), float(bracket[1])

    def slope_gap(s2: float) -> float:
        sc = SelfConsistency1D(model.with_sigma2(s2))
        return sc.mean_map_derivative(0.0) - 1.0

    if not (slope_gap(lo) > 0 > slope_gap(hi)):
        raise MeanFieldError("invalid bracket: f'(0)-1 does not change sign")
    return float(brentq(slope_gap, lo, hi, xtol=1e-8))


def contraction_factor(sc: SelfConsistency1D, epsilon: float) -> float:
    """sup over m >= epsilon of (f(m) - m_plus)/(m - m_plus), < 1 below
    the critical temperature.

    The sup lives on a bounded window.  For m > m_plus the ratio is the
    average of f' over [m_plus, m]; f' is decreasing out there (verified
    on a geometric tail grid), so those averages decrease in m and the
    window value m -> m_plus+ (namely f'(m_plus)) dominates the tail.
    A dense grid on [epsilon, m_far] covers the rest.
    """
    if epsilon <= 0:
        raise MeanFieldError("epsilon must be positive")
    if sc.mean_map_derivative(0.0) <= 1.0:
        raise MeanFieldError("supercritical temperature: the two-sided "
                             "contraction toward an outer fixed point "
                             "does not apply")
    fps = find_fixed_points(sc)
    m_plus = fps.positive_root().m
    if epsilon >= m_plus:
        raise MeanFieldError("epsilon must be below the outer fixed point")
    m_far = max(2.0 * m_plus + 2.0, epsilon + 1.0)
    grid = np.linspace(epsilon, m_far, 4096)
    best = sc.mean_map_derivative(m_plus)
    for m in grid:
        if abs(m - m_plus) < 1e-9:
            continue
        ratio = (sc.mean_map(m) - m_plus) / (m - m_plus)
        if ratio > best:
            best = float(ratio)
    # tail control; run last so the radius growth does not slow the
    # window sweep
    d_prev = sc.mean_map_derivative(m_far)
    for m in np.geomspace(m_far, 8.0 * m_far, 12)[1:]:
        d = sc.mean_map_derivative(m)
        if d > d_prev + 1e-10:
            raise MeanFieldError("mean-map slope not decreasing beyond the "
                                 "sweep window; enlarge it")
        d_prev = d
    if best >= 1.0:
        raise MeanFieldError("contraction factor not below 1")
    return best


@dataclass(frozen=True)
class DegenerateFit:
    beta: float
    cubic_coefficient: float
    fit_residual: float


def degeneracy_bound(sc: SelfConsistency1D) -> DegenerateFit:
    """Critical-temperature degeneracy certificate.

    Requires |f'(0) - 1| <= 1e-4.  Fits m - f(m) = s*m**3 + c5*m**5 near
    0 (s > 0 is the cubic degeneracy coefficient) and reports the smallest
    beta with
        |m| <= beta * (|m - f(m)| + |m - f(m)|**(1/3))
    on a grid of [-3, 3].
    """
    if abs(sc.mean_map_derivative(0.0) - 1.0) > 1e-4:
        raise MeanFieldError("not at the critical temperature: f'(0) != 1")
    ms = np.linspace(0.02, 0.4, 40)
    d = np.array([m - sc.mean_map(m) for m in ms])
    basis = np.stack([ms ** 3, ms ** 5], axis=1)
    coef, *_ = np.linalg.lstsq(basis, d, rcond=None)
    s = float(coef[0])
    if s <= 0:
        raise MeanFieldError("cubic degeneracy coefficient is not positive")
    resid = float(np.max(np.abs(basis @ coef - d)) / np.max(np.abs(d)))
    grid = np.linspace(-3.0, 3.0, 601)
    beta = 0.0
    for m in grid:
        if abs(m) < 1e-3:
            continue
        gap = abs(m - sc.mean_map(m))
        beta = max(beta, abs(m) / (gap + gap ** (1.0 / 3.0)))
    return DegenerateFit(beta=float(beta), cubic_coefficient=s,
                         fit_residual=resid)


def discrete_fixed_mean(model: ModelConfig, x_lo: float, x_hi: float,
                        n: int, m0: float) -> float:
    """Fixed point of the grid-discretized mean map, by plain iteration
    until successive means differ by less than 1e-14 (at most 500 steps).

    The discretized Gibbs density at this mean is an exact steady state
    of the exponential-fitting solver; the continuum fixed point differs
    from it at discretization order, so long-run comparisons should use
    this one.  Iteration requires |f'| < 1 at the target.
    """
    m = float(m0)
    for _ in range(500):
        m_new = equilibrium_for_mean(model, m, x_lo, x_hi, n).mean()
        if abs(m_new - m) < 1e-14:
            return m_new
        m = m_new
    raise MeanFieldError("discrete mean map iteration did not converge")


def localization_jacobian(model: ModelConfig, a: float, sigma2: float,
                          search_radius: float = 0.5) -> float:
    """f'(psi*) at the fixed point localized near a potential minimum a.

    Requires V'(a) = 0 and V''(a) > 0.  As sigma2 -> 0 the value tends to
    2*theta/(2*theta + V''(a)); staying below 1 certifies the localized
    branch as linearly stable.
    """
    pot = model.potential
    if abs(float(pot.grad(a))) > 1e-8:
        raise MeanFieldError("a is not a critical point of the potential")
    if float(pot.hess(a)) <= 0:
        raise MeanFieldError("a is not a nondegenerate local minimum")
    sc = SelfConsistency1D(model.with_sigma2(sigma2))
    h = lambda m: sc.mean_map(m) - m
    lo, hi = a - search_radius, a + search_radius
    if not (h(lo) > 0 > h(hi)):
        raise LocalizationError("no local fixed point bracketed near a; "
                                "localization regime not reached")
    psi = brentq(h, lo, hi, xtol=1e-12)
    return sc.mean_map_derivative(float(psi))
