import numpy as np
import pytest

import mckeanflow as mk
from mckeanflow import AnalysisError, TrajectoryLog
from mckeanflow.analysis import sampled_run


def test_fit_exponential_synthetic():
    t = np.linspace(0, 5, 200)
    y = 3.0 * np.exp(-2.0 * t) + 1e-8
    fit = mk.fit_exponential(t, y)
    assert fit.rate == pytest.approx(2.0, abs=1e-3)
    assert fit.amplitude == pytest.approx(3.0, rel=1e-2)
    assert fit.r_squared > 0.9999


def test_fit_exponential_constant_series():
    t = np.linspace(0, 5, 100)
    y = np.full_like(t, 0.7)
    fit = mk.fit_exponential(t, y)
    assert abs(fit.rate) <= 1e-9


def test_fit_exponential_rejects_nonpositive():
    t = np.linspace(0, 1, 20)
    y = np.linspace(1, -0.1, 20)
    with pytest.raises(AnalysisError):
        mk.fit_exponential(t, y)


def test_fit_exponential_needs_enough_samples():
    with pytest.raises(AnalysisError):
        mk.fit_exponential(np.arange(5.0), np.exp(-np.arange(5.0)))


def test_fit_rate_invariant_under_rescaling():
    t = np.linspace(0, 4, 64)
    y = np.exp(-1.3 * t) * 2.0
    a = mk.fit_exponential(t, y)
    b = mk.fit_exponential(t, 7.5 * y)
    assert a.rate == b.rate
    assert b.amplitude == pytest.approx(7.5 * a.amplitude, rel=1e-12)


def test_fit_window_shrinkage_stability():
    t = np.linspace(0, 10, 400)
    y = 0.4 * np.exp(-0.8 * t)
    rates = []
    for lo, hi in ((0, 10), (1, 9), (2, 8), (3, 7)):
        keep = (t >= lo) & (t <= hi)
        rates.append(mk.fit_exponential(t[keep], y[keep]).rate)
    assert np.max(np.abs(np.diff(rates))) < 1e-6


def test_fit_power_synthetic():
    t = np.linspace(1, 50, 300)
    y = t ** -0.5
    fit = mk.fit_power(t, y)
    assert fit.rate == pytest.approx(0.5, abs=1e-3)
    assert fit.r_squared > 0.9999


def test_fit_power_rejects_nonpositive_time():
    t = np.linspace(0, 1, 30)
    with pytest.raises(AnalysisError):
        mk.fit_power(t, np.exp(-t))


def test_detect_sign_change_linear_interpolation():
    t = np.linspace(0, 2, 21)
    y = np.cos(np.pi / 2 * t)  # crosses zero at t=1
    tc = mk.detect_sign_change(t, y)
    assert tc is not None
    assert tc == pytest.approx(1.0, abs=0.1)


def test_detect_sign_change_none_for_positive():
    t = np.linspace(0, 2, 21)
    assert mk.detect_sign_change(t, np.exp(-t)) is None


def test_detect_sign_change_first_crossing_only():
    t = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    y = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
    tc = mk.detect_sign_change(t, y)
    assert tc == pytest.approx(0.5)


@pytest.mark.parametrize("T, record_every, n_steps, n_rows", [
    (1.0, 3, 10, 5),       # 3 does not divide 10: the last step still logs
    (1.1, 4, 11, 4),       # T/dt = 11.000000000000002 is still 11 steps
    (0.95, 5, 10, 3),      # a partial step rounds up
    (1e-3, 7, 1, 2),       # at least one step
    (200.0, None, 2000, 401),  # default: about 400 samples
])
def test_sampled_run_schedule(T, record_every, n_steps, n_rows):
    steps = []
    log = TrajectoryLog(("t", "k"))
    sampled_run(lambda: steps.append(None),
                lambda: log.append(0.1 * len(steps), len(steps)),
                0.1, T, record_every)
    k = log.column("k")
    assert len(steps) == n_steps
    assert len(k) == n_rows
    assert k[0] == 0 and k[-1] == n_steps
    every = record_every or 5
    assert list(k[1:-1]) == list(range(every, n_steps, every))


def test_trajectory_log_rejects_bad_rows():
    log = TrajectoryLog(("t", "x"))
    log.append(0.0, 1.0)
    with pytest.raises(AnalysisError):
        log.append(1.0)
    with pytest.raises(AnalysisError):
        log.append(0.0, 2.0)
    assert log.rows == [(0.0, 1.0)]
    assert log.to_csv_text() == "t,x\n0,1\n"
