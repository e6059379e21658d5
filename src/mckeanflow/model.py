"""Confining potentials, quadratic interaction, and the mean-field drift.

Every supported confining potential is a polynomial with even degree and a
positive leading coefficient, so derivatives are exact and the infimum of
the curvature V'' over an interval admits a rigorous bound.  The
interaction is fixed to the quadratic kernel theta*(x-y)**2, which makes
every measure-level quantity depend on the measure only through its mean
and second moment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as P


class ModelError(ValueError):
    """Invalid model parameters or arguments outside an operation's domain."""


def _as_tuple(coefficients) -> tuple[float, ...]:
    coeffs = tuple(float(c) for c in coefficients)
    # strip trailing zeros but keep at least the constant term
    while len(coeffs) > 1 and coeffs[-1] == 0.0:
        coeffs = coeffs[:-1]
    return coeffs


# Potential.hess_inf reads the sign of V''' on brackets about each root x
# of V''', of these half-widths in units of 1 + |x|, and zooms in on one by
# cutting it to one of 32 cells; ten cuts take 1e-2 down to rounding
_BRACKETS = np.geomspace(1e-12, 1e-2, 21)
_ZOOM = np.linspace(0.0, 1.0, 33)


def _rounding(coeffs, x):
    """Bound on the rounding error of P.polyval(x, coeffs)."""
    return (2 * len(coeffs) * np.finfo(float).eps
            * P.polyval(np.abs(x), np.abs(coeffs)))


@dataclass(frozen=True)
class Potential:
    """Polynomial confining potential V.

    coefficients are in ascending order: V(x) = sum(c[k] * x**k).
    The leading degree must be even and its coefficient positive so that
    V is confining.
    """

    coefficients: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coefficients", _as_tuple(self.coefficients))
        deg = len(self.coefficients) - 1
        if deg < 2:
            raise ModelError("potential must have degree >= 2")
        if deg % 2 != 0:
            raise ModelError("potential must have even leading degree")
        if self.coefficients[-1] <= 0:
            raise ModelError("potential must have a positive leading coefficient")

    # ---- named families -------------------------------------------------

    @staticmethod
    def double_well() -> "Potential":
        """V(x) = x**4/4 - x**2/2, two wells at +-1 and a barrier at 0."""
        return Potential((0.0, 0.0, -0.5, 0.0, 0.25))

    @staticmethod
    def quadratic() -> "Potential":
        """V(x) = x**2/2."""
        return Potential((0.0, 0.0, 0.5))

    @staticmethod
    def multi_well(wells) -> "Potential":
        """Sum of quartic wells: V(x) = sum_j s_j*((x-a_j)**2 - r_j**2)**2.

        `wells` is a sequence of (scale, center, radius) triples with
        scale > 0.  Each term contributes two minima at center +- radius.
        """
        coeffs = np.zeros(1)
        for scale, center, radius in wells:
            s, a, r = float(scale), float(center), float(radius)
            if s <= 0:
                raise ModelError("well scale must be positive")
            # ((x-a)^2 - r^2)^2 expanded in ascending powers of x
            base = P.polysub(P.polypow((-a, 1.0), 2), (r * r,))
            term = s * P.polypow(base, 2)
            coeffs = P.polyadd(coeffs, term)
        return Potential(tuple(coeffs))

    # ---- evaluation ------------------------------------------------------

    def value(self, x):
        return P.polyval(np.asarray(x, dtype=float), self.coefficients)

    # derivative coefficients, formed once; fields alone set eq and hash
    @cached_property
    def _d1(self) -> np.ndarray:
        return P.polyder(self.coefficients)

    @cached_property
    def _d2(self) -> np.ndarray:
        return P.polyder(self.coefficients, 2)

    def grad(self, x):
        return P.polyval(np.asarray(x, dtype=float), self._d1)

    def hess(self, x):
        return P.polyval(np.asarray(x, dtype=float), self._d2)

    def hess_inf(self, lo: float, hi: float) -> float:
        """Lower bound for inf of V'' on [lo, hi]; either end may be infinite.

        The infimum sits at a finite endpoint or at a local minimum x* of
        V'', where V'''(x*) = 0.  If |c - x*| <= r, Taylor's theorem about
        x* gives V''(x*) >= V''(c) - r**2 * max|V''''| / 2 on [c - r, c + r],
        also with c clipped into [lo, hi] when x* is inside.  Candidates
        (c, r) enter with that slack and a rounding bound for V''(c): the
        finite endpoints with r = 0, and for each root x of V''' from
        polyroots (real part), with the sign of V''' read at x +- eps for
        eps in _BRACKETS * (1 + |x|) where it clears rounding:
        - x, with r the smallest eps where both ends are clear.  This
          covers a minimum within eps of x, also one in a cluster of roots
          too tight to show a sign change.
        - If the root error exceeds that eps, the smallest bracket whose
          ends read opposite signs holds the root.  If they read - and +,
          the bracket is zoomed in to its first - to + step.
        The bound rests on every minimum in [lo, hi] lying in one of these
        brackets about its own computed root.
        """
        if not lo < hi:
            raise ModelError("need lo < hi")
        d2 = self._d2
        d3 = P.polyder(d2)
        if not np.any(d3):
            return float(d2[0])  # constant curvature

        def sign(x):  # sign of V''', 0 where rounding could flip it
            v = P.polyval(x, d3)
            return np.sign(v) * (np.abs(v) > _rounding(d3, x))

        roots = P.polyroots(d3).real
        eps = np.outer(1.0 + np.abs(roots), _BRACKETS)
        left, right = sign(roots[:, None] - eps), sign(roots[:, None] + eps)
        rows = np.arange(len(roots))
        lit = (left != 0) & (right != 0)
        near = eps[rows, np.where(lit.any(axis=1), np.argmax(lit, axis=1), -1)]
        first = np.argmax(left * right < 0, axis=1)
        up = (left[rows, first] < 0) & (right[rows, first] > 0)
        a, b = (roots - eps[rows, first])[up], (roots + eps[rows, first])[up]
        cols, idx = np.arange(len(_ZOOM)), np.arange(len(a))
        for _ in range(10):
            # move the ends in to the first - to + step on a finer grid,
            # passing over points where rounding hides the sign
            t = a[:, None] + (b - a)[:, None] * _ZOOM
            t[:, -1] = b
            s = sign(t)
            s[:, 0], s[:, -1] = -1.0, 1.0
            k = np.argmax(s > 0, axis=1)
            m = np.max(np.where((s < 0) & (cols < k[:, None]), cols, 0), axis=1)
            a, b = t[idx, m], t[idx, k]
        ends = [x for x in (lo, hi) if np.isfinite(x)]
        c = np.concatenate((ends, roots, 0.5 * (a + b)))
        r = np.concatenate((np.zeros(len(ends)), near, 0.5 * (b - a)))
        d4 = P.polyder(d3)  # max|V''''| on [c - r, c + r] by Taylor about c
        m4 = sum(np.abs(P.polyval(c, P.polyder(d4, j))) * r ** j
                 / math.factorial(j) for j in range(len(d4)))
        xs = np.clip(c, lo, hi)
        return float(np.min(P.polyval(xs, d2) - _rounding(d2, xs)
                            - 0.5 * r ** 2 * m4))

    def hess_inf_global(self) -> float:
        """Lower bound for inf of V'' over the whole line."""
        return self.hess_inf(-np.inf, np.inf)

    def is_even(self) -> bool:
        return all(c == 0 for c in self.coefficients[1::2])


@dataclass(frozen=True)
class ModelConfig:
    """Potential, quadratic interaction kernel W(x, y) = theta*(x-y)**2
    and temperature sigma2.

    theta > 0 is attractive, theta < 0 repulsive.  The parametric
    structure behind the kernel is the feature map phi(x) = x with
    parameter energy -theta*|psi|**2, so convolutions against a measure
    reduce to its mean and second moment.
    """

    potential: Potential
    theta: float
    sigma2: float

    def __post_init__(self):
        if not self.sigma2 > 0:
            raise ModelError("sigma2 must be positive")


def standard_model(theta: float, sigma2: float,
                   potential: Potential | None = None) -> ModelConfig:
    """Quadratic-interaction model; double-well confinement by default."""
    pot = potential if potential is not None else Potential.double_well()
    return ModelConfig(potential=pot, theta=float(theta),
                       sigma2=float(sigma2))


def drift(model: ModelConfig, x, mean):
    """Mean-field drift -V'(x) - 2*theta*(x - mean).

    For the quadratic kernel the convolved interaction force at x equals
    2*theta*(x - mean), so the drift needs only the current mean.
    """
    x = np.asarray(x, dtype=float)
    return -model.potential.grad(x) - 2.0 * model.theta * (x - mean)


def mean_field_energy(model: ModelConfig, rho) -> float:
    """Energy part of the free energy: int V drho + theta*Var(rho).

    The symmetrized double integral of theta*(x-y)**2 against rho x rho
    equals 2*theta*Var(rho); the energy functional carries a factor 1/2.
    """
    if abs(rho.mass() - 1.0) > 1e-8:
        raise ModelError("density must be normalized")
    pot = float(np.dot(model.potential.value(rho.centers), rho.values) * rho.dx)
    return pot + model.theta * rho.variance()
