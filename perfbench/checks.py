"""Checks of experiment outputs against reference values or required
properties.

Each check takes parsed outputs plus reference numbers and returns a list
of failure messages; an empty list means the output passed.  The checks
never call the package under test.
"""

from __future__ import annotations

import numpy as np

CERTIFICATE_CHECKS = {"talagrand", "nonlinear_lsi", "q1_regularization",
                      "decay_envelope"}


def _close(label: str, got: float, want: float, tol: float) -> list[str]:
    if got is None or not abs(float(got) - want) <= tol:
        return ["%s = %r, reference %.17g (tolerance %.1e)"
                % (label, got, want, tol)]
    return []


def read_csv(path) -> np.ndarray:
    """A CSV with a header row, as a structured array of floats."""
    return np.atleast_1d(np.genfromtxt(path, delimiter=",", names=True))


# ---- stationary ---------------------------------------------------------------


def critical(report: dict, sigma2_c: float, tol: float = 1e-6) -> list[str]:
    return _close("sigma2_critical", report.get("sigma2_critical"),
                  sigma2_c, tol)


def fixed_points(report: dict, roots: list[float], slopes: list[float],
                 tol: float = 1e-6) -> list[str]:
    rows = report.get("fixed_points", [])
    if len(rows) != len(roots):
        return ["%d fixed points, reference has %d" % (len(rows), len(roots))]
    errors = []
    for i, (row, m, s) in enumerate(zip(rows, roots, slopes)):
        errors += _close("fixed point %d" % i, row["m"], m, tol)
        errors += _close("f' at fixed point %d" % i, row["fprime"], s, tol)
        if row["stable"] != (s < 1.0):
            errors.append("fixed point %d stability flag %r, f' = %.6g"
                          % (i, row["stable"], s))
    return errors


def sweep_counts(report: dict, expected: dict[float, int]) -> list[str]:
    got = {row["sigma2"]: row["fixed_point_count"]
           for row in report.get("sweep", [])}
    if sorted(got) != sorted(expected):
        return ["sweep temperatures %r, expected %r"
                % (sorted(got), sorted(expected))]
    return ["sigma2=%g: %d fixed points, reference has %d"
            % (s2, got[s2], n) for s2, n in sorted(expected.items())
            if got[s2] != n]


def phase_csv(table: np.ndarray, theta: float, even: bool,
              samples: dict[int, tuple[float, float, float]],
              tol: float = 1e-8) -> list[str]:
    """One phase-diagram CSV (columns m, f, fprime, g).

    `samples` maps a row index to the reference (f, f', g) at that row's m.
    Differences of g must equal 2*theta*(m - f) by the trapezoid rule, to
    within its truncation error h^3/12 * max|g'''|, with g''' = -2*theta*f''
    bounded from differences of the fprime column.
    """
    m, f, fp, g = table["m"], table["f"], table["fprime"], table["g"]
    errors = []
    for i, (f_ref, fp_ref, g_ref) in samples.items():
        errors += _close("f(%.6g)" % m[i], f[i], f_ref, tol)
        errors += _close("f'(%.6g)" % m[i], fp[i], fp_ref, tol)
        errors += _close("g(%.6g)" % m[i], g[i], g_ref, tol)
    if even:
        odd = float(np.max(np.abs(f + f[::-1])))
        if not odd <= 1e-9:
            errors.append("f(-m) differs from -f(m) by %.3g" % odd)
    h = np.diff(m)
    slope = 2.0 * theta * (m - f)
    trapezoid = 0.5 * h * (slope[:-1] + slope[1:])
    f2 = np.abs(np.diff(fp)) / h
    f2_max = np.maximum(f2, np.concatenate((f2[1:], f2[-1:])))
    f2_max = np.maximum(f2_max, np.concatenate((f2[:1], f2[:-1])))
    bound = 2.0 * h ** 3 / 12.0 * 2.0 * abs(theta) * f2_max + 1e-10
    gap = np.abs(np.diff(g) - trapezoid)
    if not np.all(gap <= bound):
        i = int(np.argmax(gap / bound))
        errors.append("g differences disagree with 2*theta*(m - f) near "
                      "m=%.6g: %.3g > %.3g" % (m[i], gap[i], bound[i]))
    return errors


def localization(report: dict, jacobians: list[float],
                 tol: float = 1e-6) -> list[str]:
    got = report.get("jacobians", [])
    if len(got) != len(jacobians):
        return ["%d jacobians, expected %d" % (len(got), len(jacobians))]
    errors = []
    for s2, j, ref in zip(report["sigma2_values"], got, jacobians):
        errors += _close("jacobian at sigma2=%g" % s2, j, ref, tol)
    if not all(j < 1.0 for j in got):
        errors.append("a jacobian is not below 1: %r" % got)
    if not all(a > b for a, b in zip(got, got[1:])):
        errors.append("jacobians do not decrease: %r" % got)
    if not (report["all_below_one"] and report["monotone_decreasing"]):
        errors.append("report flags %r, %r" % (report["all_below_one"],
                                                report["monotone_decreasing"]))
    return errors


# ---- certificate --------------------------------------------------------------


def certificate(cert: dict, m_plus: float, min_vpp: float,
                ratios: list[float]) -> list[str]:
    """A validated certificate for the quadratic-interaction model.

    `min_vpp` is the exact minimum of V'' over the line and `ratios` the
    reference contraction ratios (f(m) - m+)/(m - m+) at sampled m.
    """
    errors = []
    if cert.get("verdict") != "VALID":
        errors.append("verdict %r" % cert.get("verdict"))
    checks = cert.get("checks", [])
    names = {c["name"] for c in checks}
    if names != CERTIFICATE_CHECKS:
        errors.append("checks %r" % sorted(names))
    for c in checks:
        if not (c["passed"] and c["n_samples"] > 0):
            errors.append("check %s passed=%r n_samples=%r"
                          % (c["name"], c["passed"], c["n_samples"]))
    theta = cert["model"]["theta"]
    s2 = cert["model"]["sigma2"]
    k = cert["constants"]
    errors += _close("m_plus", cert["m_plus"], m_plus, 1e-6)
    errors += _close("L", k["L"], 2.0 * abs(theta), 1e-12)
    errors += _close("lambda", k["lambda"], theta, 1e-12)
    convexity = min_vpp + 2.0 * theta
    errors += _close("kappa1", k["kappa1"], 2.0 * max(0.0, -convexity), 1e-5)
    if convexity > 0 and not k["eta"] <= s2 / (2.0 * convexity) * (1 + 1e-5):
        errors.append("eta %.17g above the convex bound %.17g"
                      % (k["eta"], s2 / (2.0 * convexity)))
    if not k["alpha_eps"] < 1.0:
        errors.append("alpha_eps %.17g is not below 1" % k["alpha_eps"])
    worst = max(ratios)
    if not k["alpha_eps"] >= worst - 1e-9:
        errors.append("alpha_eps %.17g below the contraction ratio %.17g"
                      % (k["alpha_eps"], worst))
    if not k["delta_prime"] < k["delta"]:
        errors.append("delta' %.6g is not below delta %.6g"
                      % (k["delta_prime"], k["delta"]))
    errors += _close("delta", k["delta"], cert["m_plus"] - cert["epsilon"],
                     1e-12)
    return errors


# ---- granular counterexample ----------------------------------------------------


def counterexample(report: dict, trajectory: np.ndarray,
                   initial_mean: float) -> list[str]:
    errors = []
    t, mean, f = trajectory["t"], trajectory["mean"], trajectory["F"]
    if not report["initial_mean"] > 0 > report["final_mean"]:
        errors.append("mean does not change sign: %.6g -> %.6g"
                      % (report["initial_mean"], report["final_mean"]))
    errors += _close("initial mean", report["initial_mean"], initial_mean,
                     1e-6)
    t_cross = report.get("t_cross")
    if t_cross is None or not 0.0 < t_cross < 5.0:
        errors.append("t_cross %r outside (0, 5)" % t_cross)
    else:
        i = int(np.argmax(mean[1:] < 0))
        want = t[i] + mean[i] / (mean[i] - mean[i + 1]) * (t[i + 1] - t[i])
        errors += _close("t_cross", t_cross, want, 1e-12 * (1.0 + want))
    if not report["free_energy_drop"] > 0:
        errors.append("free energy drop %r" % report["free_energy_drop"])
    if not np.all(np.diff(t) > 0):
        errors.append("trajectory times do not increase")
    if not np.all(np.diff(f) <= 1e-8 * (1.0 + np.abs(f[1:]))):
        errors.append("free energy increases along the trajectory")
    return errors


# ---- kinetic ------------------------------------------------------------------------


def kinetic_state(state: np.ndarray, da: float, sigma2: float,
                  report: dict) -> list[str]:
    """Final phase-space state (columns x, v, value): unit mass, no
    negative cells and velocity variance within 2 % of sigma2."""
    errors = []
    x, v, rho = state["x"], state["v"], state["value"]
    mass = float(rho.sum() * da)
    errors += _close("final mass", mass, 1.0, 1e-10)
    if rho.min() < 0:
        errors.append("negative cell %.3g" % rho.min())
    w = rho * da / mass
    vmean = float(np.dot(w, v))
    vvar = float(np.dot(w, (v - vmean) ** 2))
    errors += _close("velocity variance", vvar, sigma2, 0.02 * sigma2)
    errors += _close("reported velocity variance",
                     report["final_velocity_variance"], vvar, 1e-9)
    errors += _close("reported x mean", report["final_x_mean"],
                     float(np.dot(w, x)), 1e-9)
    return errors


def exponential_decay(t: np.ndarray, y: np.ndarray,
                      r2_min: float = 0.98) -> list[str]:
    """log y against t by least squares: a negative slope with r^2 >= r2_min."""
    if len(t) < 10 or not np.all(y > 0):
        return ["%d samples, min %.3g: no exponential fit" % (len(t), y.min())]
    a = np.vstack([np.ones_like(t), t]).T
    ly = np.log(y)
    coef, *_ = np.linalg.lstsq(a, ly, rcond=None)
    r2 = 1.0 - float(np.sum((a @ coef - ly) ** 2)
                     / np.sum((ly - ly.mean()) ** 2))
    if not (coef[1] < 0 and r2 >= r2_min):
        return ["W2 fit rate %.4g, r^2 %.5f" % (-coef[1], r2)]
    return []


# ---- particles --------------------------------------------------------------------


def particles(report: dict, trajectories: list[np.ndarray], m_plus: float,
              f_star: float, final_time: float) -> list[str]:
    """Median final mean within 0.05 of m+, median |proxy - F*| <= 0.1."""
    errors = []
    finals = [tr[-1] for tr in trajectories]
    for fin in finals:
        errors += _close("final time", fin["t"], final_time,
                         1e-9 * final_time)
    med_mean = float(np.median([fin["mean"] for fin in finals]))
    errors += _close("median final mean", med_mean, m_plus, 0.05)
    errors += _close("reported median final mean",
                     report["median_final"]["mean"], med_mean, 1e-12)
    gap = float(np.median([abs(fin["fe_proxy"] - f_star) for fin in finals]))
    if not gap <= 0.1:
        errors.append("median |proxy - F*| = %.4g > 0.1" % gap)
    return errors


def step_counts(calls: int, expected: int) -> list[str]:
    if calls != expected:
        return ["traced particle steps %d, inputs give %d" % (calls, expected)]
    return []
