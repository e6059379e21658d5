"""Parametric self-consistency analysis of the stationary equation.

The Gibbs map rho -> exp(-(V + theta*(x - mean(rho))**2)/sigma2)/Z closes
over one scalar parameter: the family rho_m indexed by the frozen mean m.
Stationary densities correspond to fixed points of the scalar map

    f(m) = mean of rho_m,

and the one-dimensional reduction of the free energy along the family is

    g(m) = -sigma2 * log int exp(-(V(x) + theta*(x-m)**2)/sigma2) dx,

with g'(m) = 2*theta*(m - f(m)).  This module evaluates f, f', g with
composite Gauss-Legendre quadrature on panels sized from the Gibbs width
sqrt(sigma2/(V'' + 2*theta)), for one mean or an array of means per call;
each mean's values depend on the model and that mean only.  It locates
fixed points, the critical temperature where f'(0) = 1, contraction
factors toward the outer fixed point, the cubic degeneracy at the critical
temperature, and the low-temperature localization of fixed points near
potential minima.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as P
from scipy.optimize import brentq

from .grid import equilibrium_for_mean
from .model import ModelConfig, Potential, standard_model

_TAIL_LOG = np.log(1e-14)
# quadrature radii: a mean uses the first that holds its tails
_RADII = tuple(6.0 * 2.0 ** k for k in range(8))
# panel width in Gibbs widths sqrt(sigma2/kappa), capped at 1
_PANEL_WIDTHS = 8.0
# panels on one radius at most, so that no node set holds more nodes than
# panels of width 0.1 on the widest radius
_MAX_PANELS = 15360
# (mean, node) pairs evaluated at once, which bounds the batch temporaries
_PAIRS = 32768


class MeanFieldError(ValueError):
    """Arguments outside the domain of a self-consistency operation."""


class LocalizationError(MeanFieldError):
    """No local fixed point exists near the requested potential minimum."""


class SelfConsistency1D:
    """Quadrature-backed evaluation of the local-equilibrium family.

    Composite Gauss-Legendre quadrature with 40 nodes per panel on [-R, R]
    for R in 6, 12, 24, ..., 768.  The panels on [-R, R] are 8 Gibbs widths
    sqrt(sigma2/kappa_R) wide, at most 1, where kappa_R is the largest
    V'' + 2*theta where some rho_m with |m| < R - 1 is above 1e-14 of its
    peak.  No radius takes more than 15 360 panels (614 400 nodes, what
    panels of width 0.1 take on R = 768), so panels are never narrower
    than R/7680.  A mean m takes the first R with |m| + 1 < R at which the
    integrand at both ends is below 1e-14 relative to its peak, so
    moments and log-partition values carry no visible truncation bias and
    depend on (model, m) only, whatever other means share the call.  Tails
    wider than R = 768 raise MeanFieldError, as does a model whose
    V + theta*x**2 is not confining.
    """

    def __init__(self, model: ModelConfig):
        # V has even degree and a positive leading coefficient, so only a
        # quadratic V can lose confinement to a repulsive theta
        coeffs = model.potential.coefficients
        if len(coeffs) == 3 and coeffs[2] + model.theta <= 0:
            raise MeanFieldError("V + theta*x**2 is not confining; the "
                                 "Gibbs family is not normalizable")
        self.model = model
        self._node_sets: dict[float, tuple[np.ndarray, ...]] = {}

    def _panel_width(self, radius: float) -> float:
        """Panel width on [-radius, radius].

        The family is ordered in m, so the means +-(radius - 1) and 0 bound
        the hull of the points where some rho_m with |m| < radius - 1 is
        above the tail level.  Its ends are the outer real roots of
        E_m - min E_m - tail level, E_m = V + theta*(x - m)**2; the largest
        V'' on it sits at an end or at a root of V'''.
        """
        pot, th, s2 = self.model.potential, self.model.theta, self.model.sigma2
        ends = []
        for m in (1.0 - radius, 0.0, radius - 1.0):
            e = P.polyadd(pot.coefficients, (th * m * m, -2.0 * th * m, th))
            crit = P.polyroots(P.polyder(e)).real
            x_min = crit[np.argmin(P.polyval(crit, e))]
            r = P.polyroots(P.polysub(
                e, (P.polyval(x_min, e) - _TAIL_LOG * s2,)))
            # a near-real pair counts as real: it can only widen the hull
            real = np.abs(r.imag) <= 1e-6 * (1.0 + np.abs(r.real))
            ends += [x_min, *r.real[real]]
        lo, hi = max(min(ends), -radius), min(max(ends), radius)
        d3 = P.polyroots(P.polyder(pot.coefficients, 3)).real
        xs = np.concatenate(([lo, hi], d3[(d3 > lo) & (d3 < hi)]))
        kappa = float(np.max(pot.hess(xs))) + 2.0 * th
        if kappa <= 0:
            return 1.0
        return min(1.0, _PANEL_WIDTHS * float(np.sqrt(s2 / kappa)))

    def _node_set(self, radius: float) -> tuple[np.ndarray, ...]:
        """(nodes, weights, V/sigma2 at the nodes) on [-radius, radius]."""
        if radius not in self._node_sets:
            n_panels = min(_MAX_PANELS, int(np.ceil(
                2.0 * radius / self._panel_width(radius))))
            z, w = np.polynomial.legendre.leggauss(40)
            half = radius / n_panels
            lefts = -radius + 2.0 * half * np.arange(n_panels)
            nodes = (lefts[:, None] + half * (z + 1.0)).ravel()
            weights = np.tile(half * w, n_panels)
            self._node_sets[radius] = (
                nodes, weights,
                self.model.potential.value(nodes) / self.model.sigma2)
        return self._node_sets[radius]

    def moments(self, m: float | np.ndarray) -> tuple:
        """(log-partition value, mean, variance) of rho_m.

        m is one mean, which gives three floats, or an array of means,
        which gives three arrays of its shape.  Each mean is reduced on
        its own row, so its values do not depend on the other means in
        the call.  The peak shift used for overflow safety is added back,
        so the first entry is the true log Z.
        """
        ms = np.asarray(m, dtype=float)
        flat = ms.ravel()
        if not np.all(np.isfinite(flat)):
            raise MeanFieldError("m must be finite")
        c = self.model.theta / self.model.sigma2
        out = np.empty((3, flat.size))
        left = np.ones(flat.size, dtype=bool)
        for radius in _RADII:
            if not left.any():
                break
            rows = np.flatnonzero(left & (np.abs(flat) + 1.0 < radius))
            if not rows.size:
                continue
            x, w, q = self._node_set(radius)
            step = max(1, _PAIRS // x.size)
            for start in range(0, rows.size, step):
                idx = rows[start:start + step]
                # e = (V + theta*(x - m)**2)/sigma2, low its minimum
                d = x - flat[idx, None]
                e = d * d
                e *= c
                e += q
                low = e.min(axis=1)
                held = np.minimum(e[:, 0], e[:, -1]) - low > -_TAIL_LOG
                if not held.all():
                    idx, d, e, low = idx[held], d[held], e[held], low[held]
                np.subtract(low[:, None], e, out=e)
                np.exp(e, out=e)
                e *= w
                # row-wise sums: a matrix product may sum in an order that
                # depends on the batch shape
                z = e.sum(axis=1)
                shift = (e * d).sum(axis=1) / z
                d -= shift[:, None]
                d *= d
                d *= e
                out[:, idx] = (np.log(z) - low, flat[idx] + shift,
                               d.sum(axis=1) / z)
                left[idx] = False
        if left.any():
            raise MeanFieldError("rho_m at m=%.6g has tails beyond |x| = %g, "
                                 "the widest quadrature domain"
                                 % (flat[left][0], _RADII[-1]))
        if ms.ndim == 0:
            return float(out[0, 0]), float(out[1, 0]), float(out[2, 0])
        return tuple(out.reshape((3,) + ms.shape))

    # ---- the scalar reduction ---------------------------------------------

    def mean_map(self, m: float | np.ndarray) -> float | np.ndarray:
        """f(m): mean of the Gibbs density with frozen mean m."""
        return self.moments(m)[1]

    def mean_map_derivative(self, m: float | np.ndarray) -> float | np.ndarray:
        """f'(m) = (2*theta/sigma2) * Var(rho_m), a covariance identity."""
        _, _, var = self.moments(m)
        return 2.0 * self.model.theta / self.model.sigma2 * var

    def effective_potential(self, m: float | np.ndarray) -> float | np.ndarray:
        """g(m) = -sigma2 * log Z(m); g'(m) = 2*theta*(m - f(m))."""
        logz, _, _ = self.moments(m)
        return -self.model.sigma2 * logz


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
        h_lo, h_hi = h(np.array([lo, hi]))
        if h_lo > 0 and h_hi < 0:
            break
        lo, hi = 1.5 * lo - 1.0, 1.5 * hi + 1.0
    else:
        raise MeanFieldError("could not bracket all fixed points")
    grid = np.linspace(lo, hi, 2048)
    vals = h(grid)
    # exact zeros are roots; a sign change between neighbours brackets one
    roots = [float(grid[i]) for i in np.flatnonzero(vals == 0.0)]
    roots += [float(brentq(h, grid[i], grid[i + 1], xtol=1e-12))
              for i in np.flatnonzero(vals[:-1] * vals[1:] < 0)]
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


def critical_sigma2(potential: Potential, theta: float,
                    bracket=(0.3, 1.0)) -> float:
    """Temperature where f'(0) = 1, by bisection in sigma2 to 1e-8.

    Requires f'(0) > 1 at the low end of the bracket and < 1 at the high
    end; f'(0) is strictly decreasing in sigma2 in the confining case.
    """
    lo, hi = float(bracket[0]), float(bracket[1])

    def slope_gap(s2: float) -> float:
        sc = SelfConsistency1D(standard_model(theta, s2, potential))
        return sc.mean_map_derivative(0.0) - 1.0

    if not (slope_gap(lo) > 0 > slope_gap(hi)):
        raise MeanFieldError("invalid bracket: f'(0)-1 does not change sign")
    return float(brentq(slope_gap, lo, hi, xtol=1e-8))


def contraction_factor(sc: SelfConsistency1D, epsilon: float,
                       m_plus: float | None = None) -> float:
    """sup over m >= epsilon of (f(m) - m_plus)/(m - m_plus), < 1 below
    the critical temperature.

    m_plus is the outer fixed point; None finds it, a caller that already
    has it passes it.  The sup lives on a bounded window.  For m > m_plus
    the ratio is the average of f' over [m_plus, m]; f' is decreasing out
    there (verified on a geometric tail grid), so those averages decrease
    in m and the window value m -> m_plus+ (namely f'(m_plus)) dominates
    the tail.  A dense grid on [epsilon, m_far] covers the rest.
    """
    if epsilon <= 0:
        raise MeanFieldError("epsilon must be positive")
    if sc.mean_map_derivative(0.0) <= 1.0:
        raise MeanFieldError("supercritical temperature: the two-sided "
                             "contraction toward an outer fixed point "
                             "does not apply")
    if m_plus is None:
        m_plus = find_fixed_points(sc).positive_root().m
    if epsilon >= m_plus:
        raise MeanFieldError("epsilon must be below the outer fixed point")
    m_far = max(2.0 * m_plus + 2.0, epsilon + 1.0)
    grid = np.linspace(epsilon, m_far, 4096)
    grid = grid[np.abs(grid - m_plus) >= 1e-9]
    ratios = (sc.mean_map(grid) - m_plus) / (grid - m_plus)
    best = max(sc.mean_map_derivative(m_plus), float(ratios.max()))
    # tail control
    d = sc.mean_map_derivative(np.geomspace(m_far, 8.0 * m_far, 12))
    if np.any(d[1:] > d[:-1] + 1e-10):
        raise MeanFieldError("mean-map slope not decreasing beyond the "
                             "sweep window; enlarge it")
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
    d = ms - sc.mean_map(ms)
    basis = np.stack([ms ** 3, ms ** 5], axis=1)
    coef, *_ = np.linalg.lstsq(basis, d, rcond=None)
    s = float(coef[0])
    if s <= 0:
        raise MeanFieldError("cubic degeneracy coefficient is not positive")
    resid = float(np.max(np.abs(basis @ coef - d)) / np.max(np.abs(d)))
    grid = np.linspace(-3.0, 3.0, 601)
    grid = grid[np.abs(grid) >= 1e-3]
    gap = np.abs(grid - sc.mean_map(grid))
    beta = np.max(np.abs(grid) / (gap + gap ** (1.0 / 3.0)))
    return DegenerateFit(beta=float(beta), cubic_coefficient=s,
                         fit_residual=resid)


def discrete_fixed_mean(model: ModelConfig, x_lo: float, x_hi: float,
                        n: int, m0: float) -> float:
    """Fixed point of the grid-discretized mean map f_d that plain
    iteration from m0 converges to (for theta < 0 the only one), found
    once |f_d(m) - m| < 1e-14.

    The discretized Gibbs density at this mean is an exact steady state
    of the exponential-fitting solver; the continuum fixed point differs
    from it at discretization order, so long-run comparisons should use
    this one.  Steps are Newton steps with the exact slope f_d' =
    (2*theta/sigma2) * Var_d, cut where f_d' extrapolated linearly from
    the last point would pass (1 + f_d')/2, so as not to cross an unstable
    root, and never shorter than the plain step f_d(m) - m if theta > 0;
    a step past a point seen on the root's other side bisects instead.
    """
    c = 2.0 * model.theta / model.sigma2
    m, last, lo, hi = float(m0), None, -np.inf, np.inf
    for _ in range(500):
        rho = equilibrium_for_mean(model, m, x_lo, x_hi, n)
        h, slope = rho.mean() - m, c * rho.variance()
        curv = abs(slope - last[1]) / abs(m - last[0]) if last else np.inf
        reach = (1.0 - slope) / (2.0 * curv) if curv else np.inf
        step = h if slope >= 1.0 else np.copysign(
            min(abs(h) / (1.0 - slope), max(abs(h), reach)), h)
        if abs(h) < 1e-14:
            return float(m + step)
        lo, hi = (m, hi) if h > 0 else (lo, m)
        last, m = (m, slope), (m + step if lo < m + step < hi
                               else 0.5 * (lo + hi))
    raise MeanFieldError("discrete mean map iteration did not converge")


def localization_jacobian(model: ModelConfig, a: float) -> float:
    """f'(psi*) at the model's fixed point psi* in [a - 0.5, a + 0.5],
    localized near a potential minimum a.

    Requires V'(a) = 0 and V''(a) > 0.  As sigma2 -> 0 the value tends to
    2*theta/(2*theta + V''(a)); staying below 1 certifies the localized
    branch as linearly stable.
    """
    pot = model.potential
    if abs(float(pot.grad(a))) > 1e-8:
        raise MeanFieldError("a is not a critical point of the potential")
    if float(pot.hess(a)) <= 0:
        raise MeanFieldError("a is not a nondegenerate local minimum")
    sc = SelfConsistency1D(model)
    h = lambda m: sc.mean_map(m) - m
    lo, hi = a - 0.5, a + 0.5
    if not (h(lo) > 0 > h(hi)):
        raise LocalizationError("no local fixed point bracketed near a; "
                                "localization regime not reached")
    psi = brentq(h, lo, hi, xtol=1e-12)
    return sc.mean_map_derivative(float(psi))
