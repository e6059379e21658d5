"""Reference values computed apart from the package under test.

Everything here uses adaptive `scipy.integrate.quad`, `scipy.optimize.brentq`
and closed forms; nothing calls mckeanflow's Gauss-Legendre mean map, its
root finders or its solvers.  The references are computed after a run's
timed phase, so they count neither as set-up nor as time to result.

The model is the one of the package: Gibbs densities
rho_m(x) ~ exp(-(V(x) + theta*(x - m)**2)/sigma2) for a polynomial V, whose
mean is the mean map f(m).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as P
from scipy.integrate import quad
from scipy.optimize import brentq

# Every benchmark potential is at least quartic, so exp(-E/sigma2) is below
# 1e-300 of its peak long before |x| = 10 at the temperatures used here.
RADIUS = 10.0
_QUAD = dict(epsabs=1e-12, epsrel=1e-11, limit=500)

DOUBLE_WELL = (0.0, 0.0, -0.5, 0.0, 0.25)
# (x^8/8 - 7x^6/3 + 49x^4/4 - 18x^2)/36: V' = x(x^2-1)(x^2-4)(x^2-9)/36,
# minima at +-1 and +-3, maxima at 0 and +-2.
FOUR_WELL = tuple(c / 36.0 for c in (0.0, 0.0, -18.0, 0.0, 49.0 / 4.0, 0.0,
                                     -7.0 / 3.0, 0.0, 1.0 / 8.0))


class Gibbs:
    """The frozen-mean Gibbs family of one (V, theta, sigma2)."""

    def __init__(self, coefficients, theta: float, sigma2: float):
        self.v = np.asarray(coefficients, dtype=float)
        self.theta = float(theta)
        self.sigma2 = float(sigma2)

    def _integrals(self, m: float, n_moments: int):
        """Central moments 0..n_moments-1 of exp(-(E - E_min)/sigma2),
        E(x) = V(x) + theta*(x - m)^2, taken about the minimiser c of E.

        The critical points of E are handed to quad as break points, so
        narrow peaks at low temperature are not stepped over.
        Returns (integrals, E_min, c).
        """
        e = P.polyadd(self.v, self.theta * np.array([m * m, -2.0 * m, 1.0]))
        crit = P.polyroots(P.polyder(e))
        crit = np.sort(crit[np.abs(crit.imag) < 1e-9].real)
        crit = crit[np.abs(crit) < RADIUS]
        e_crit = P.polyval(crit, e)
        c = float(crit[np.argmin(e_crit)])
        e_min = float(np.min(e_crit))
        s2 = self.sigma2
        out = []
        for k in range(n_moments):
            val, _ = quad(lambda x: (x - c) ** k
                          * math.exp(-(P.polyval(x, e) - e_min) / s2),
                          -RADIUS, RADIUS, points=list(crit), **_QUAD)
            out.append(val)
        return out, e_min, c

    def mean(self, m: float) -> float:
        """f(m), the mean of rho_m."""
        (z, z1), _, c = self._integrals(m, 2)
        return c + z1 / z

    def moments(self, m: float) -> tuple[float, float, float]:
        """(log Z, mean, variance) of rho_m."""
        (z, z1, z2), e_min, c = self._integrals(m, 3)
        d = z1 / z
        return -e_min / self.sigma2 + math.log(z), c + d, z2 / z - d * d

    def slope(self, m: float) -> float:
        """f'(m) = (2*theta/sigma2) * Var(rho_m)."""
        return 2.0 * self.theta / self.sigma2 * self.moments(m)[2]

    def free_energy_at_fixed_point(self, m: float) -> float:
        """F(rho_m) when f(m) = m.  With the mean frozen at the density's
        own mean, sigma2*int rho log rho + int V rho + theta*Var(rho)
        collapses to -sigma2*log Z(m)."""
        return -self.sigma2 * self.moments(m)[0]

    def fixed_points(self, lo: float, hi: float, n: int) -> list[float]:
        """Roots of f(m) - m: sign changes on an n-point scan of [lo, hi],
        each refined by brentq."""
        grid = np.linspace(lo, hi, n)
        vals = [self.mean(float(m)) - float(m) for m in grid]
        roots = []
        for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
            if fa == 0.0:
                roots.append(float(a))
            elif fa * fb < 0.0:
                roots.append(self.fixed_point_in(a, b))
        if vals[-1] == 0.0:
            roots.append(float(grid[-1]))
        return roots

    def fixed_point_in(self, lo: float, hi: float) -> float:
        return float(brentq(lambda m: self.mean(m) - m, lo, hi, xtol=1e-13))


def critical_sigma2(coefficients, theta: float, lo: float, hi: float) -> float:
    """Temperature where f'(0) = 1, by brentq in sigma2."""
    return float(brentq(
        lambda s2: Gibbs(coefficients, theta, s2).slope(0.0) - 1.0,
        lo, hi, xtol=1e-13))
