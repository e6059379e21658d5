"""Trajectories: the sampling run loop, the sample log, decay-rate fits
and sign-change detection."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class AnalysisError(ValueError):
    pass


@dataclass
class TrajectoryLog:
    """Samples along a run: one row of floats per sample, time first."""

    columns: tuple[str, ...]
    rows: list[tuple[float, ...]] = field(default_factory=list)

    def append(self, *vals: float) -> None:
        if len(vals) != len(self.columns):
            raise AnalysisError("expected %d values" % len(self.columns))
        if self.rows and not vals[0] > self.rows[-1][0]:
            raise AnalysisError("times must be strictly increasing")
        self.rows.append(tuple(float(v) for v in vals))

    def column(self, name: str) -> np.ndarray:
        i = self.columns.index(name)
        return np.array([r[i] for r in self.rows])

    @property
    def t(self) -> np.ndarray:
        return self.column("t")

    def to_csv_text(self) -> str:
        lines = [",".join(self.columns)]
        for r in self.rows:
            lines.append(",".join("%.17g" % v for v in r))
        return "\n".join(lines) + "\n"


# the most steps one run may take; past it a run would not end in any
# useful time
MAX_STEPS = 10 ** 8


def step_count(T: float, dt: float) -> int:
    """max(1, ceil(T/dt)) steps, forgiving T/dt a 1e-12 rounding excess.

    More than `MAX_STEPS` steps raise `AnalysisError`."""
    n = np.ceil(T / dt - 1e-12)
    if not n <= MAX_STEPS:
        raise AnalysisError("dt=%.6g and T=%.6g take %.6g steps, more than "
                            "the budget of %d" % (dt, T, n, MAX_STEPS))
    return max(1, int(n))


def sampled_run(step: Callable[[], None], sample: Callable[[], None],
                dt: float, T: float, record_every: int | None = None) -> None:
    """Take `step_count(T, dt)` steps and call `sample()`, which logs into
    the caller's logs, before the first step, after every
    `record_every`-th step and after the last.

    record_every None aims at about 400 samples.
    """
    n_steps = step_count(T, dt)
    if record_every is None:
        record_every = max(1, int(round(n_steps / 400)))
    sample()
    for k in range(1, n_steps + 1):
        step()
        if k % record_every == 0 or k == n_steps:
            sample()


@dataclass(frozen=True)
class RateFit:
    rate: float          # decay rate (exponential) or exponent (power law)
    amplitude: float
    r_squared: float     # goodness of the straight-line fit in log scale


def _line_fit(u: np.ndarray, w: np.ndarray) -> tuple[float, float, float]:
    a = np.stack([u, np.ones_like(u)], axis=1)
    coef, *_ = np.linalg.lstsq(a, w, rcond=None)
    resid = w - a @ coef
    ss_res = float(np.dot(resid, resid))
    ss_tot = float(np.dot(w - w.mean(), w - w.mean()))
    r2 = 1.0 if ss_tot < 1e-30 else 1.0 - ss_res / ss_tot
    return float(coef[0]), float(coef[1]), r2


def _fit_window(t, y, positive_t: bool) -> tuple[np.ndarray, np.ndarray]:
    """t and y as float arrays, checked for a log-scale fit: 1d, equal
    length, at least 10 samples, all finite, y > 0 (and t > 0 if asked)."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise AnalysisError("t and y must be 1d arrays of equal length")
    if len(y) < 10:
        raise AnalysisError("need at least 10 samples in the fit window")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
        raise AnalysisError("non-finite sample in the fit window")
    if np.any(y <= 0) or (positive_t and np.any(t <= 0)):
        raise AnalysisError("nonpositive sample in the fit window")
    return t, y


def fit_exponential(t, y) -> RateFit:
    """Least-squares fit of y ~ amplitude * exp(-rate * t) in log scale.

    All samples must be finite and strictly positive, and at least 10 are
    required; slice the window before calling.
    """
    t, y = _fit_window(t, y, positive_t=False)
    slope, intercept, r2 = _line_fit(t, np.log(y))
    return RateFit(rate=-slope, amplitude=float(np.exp(intercept)),
                   r_squared=r2)


def fit_power(t, y) -> RateFit:
    """Least-squares fit of y ~ amplitude * t**(-rate) in log-log scale.

    Requires finite t > 0 and y > 0 throughout and at least 10 samples."""
    t, y = _fit_window(t, y, positive_t=True)
    slope, intercept, r2 = _line_fit(np.log(t), np.log(y))
    return RateFit(rate=-slope, amplitude=float(np.exp(intercept)),
                   r_squared=r2)


def detect_sign_change(t, y) -> float | None:
    """First time y crosses zero, by linear interpolation; None if it
    keeps its sign.  Exact zeros count as crossings."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise AnalysisError("t and y must be 1d arrays of equal length")
    if len(t) == 0:
        return None
    for i in range(len(y) - 1):
        if y[i] == 0.0:
            return float(t[i])
        if y[i] * y[i + 1] < 0:
            frac = y[i] / (y[i] - y[i + 1])
            return float(t[i] + frac * (t[i + 1] - t[i]))
    if y[-1] == 0.0:
        return float(t[-1])
    return None
