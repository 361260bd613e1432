"""Correctness oracles for every output the benchmark consumes.

Each oracle returns a list of failure messages; an empty list means the
output passed. The oracles hold for any seed: they compare against the
generating truth or against exact identities, with tolerances set in
units of the Monte-Carlo standard error. Functions are
bound here at import, before any tracing wraps the package's bindings,
so that checking an output never shows up in a traced span.
"""

from __future__ import annotations

import math

import numpy as np

from sdar.model import loglik
from sdar.persistence import check_assumptions, psi

# Spread of a normal as (q75 - q25) / IQR_PER_SIGMA.
IQR_PER_SIGMA = 1.3489795003921634


def _finite(name, values) -> list[str]:
    arr = np.asarray(values, dtype=float)
    return [] if np.all(np.isfinite(arr)) else [f"{name}: non-finite values"]


def fit_reaches_truth(result, truth, series) -> list[str]:
    """The fit of the true kind is at least as likely as the truth itself."""
    ll_truth = loglik(truth, series)
    fails = _finite("fit loglik", [result.loglik])
    if not fails and result.loglik < ll_truth - 1e-6 * abs(ll_truth):
        fails.append(
            f"fit loglik {result.loglik:.6f} below truth {ll_truth:.6f}"
        )
    return fails


def fit_is_sane(result) -> list[str]:
    fails = _finite("fit", [result.loglik, result.aic, *result.theta_hat.to_array()])
    if not fails and not math.isclose(result.aic, 10.0 - 2.0 * result.loglik,
                                      rel_tol=1e-12, abs_tol=1e-9):
        fails.append("fit aic does not equal 10 - 2 loglik")
    return fails


def selection_is_min_aic(index, fits) -> list[str]:
    aics = [f.aic for f in fits]
    if index != int(np.argmin(aics)):
        return [f"select_model chose {index}, aics {aics}"]
    return []


def assumption_report_is_sane(report) -> list[str]:
    fails = _finite("sup bounds", [report.sup_bound_closed_form, report.sup_bound_numeric])
    expected = max(report.sup_bound_closed_form, report.sup_bound_numeric) < 1.0
    if report.a1_satisfied != expected:
        fails.append("a1_satisfied disagrees with the sup bounds")
    return fails


def setar_is_sane(result, max_lag) -> list[str]:
    fails = _finite(
        "setar",
        [result.c1, result.c2, result.sigma1, result.sigma2, result.threshold,
         result.aic, *result.phi1, *result.phi2],
    )
    if not (1 <= result.d1 <= max_lag and 1 <= result.d2 <= max_lag):
        fails.append(f"setar lag orders ({result.d1}, {result.d2}) outside 1..{max_lag}")
    if not (result.sigma1 > 0 and result.sigma2 > 0):
        fails.append("setar noise scale not positive")
    return fails


def quantiles_are_ordered(quantiles: dict) -> list[str]:
    probs = sorted(quantiles)
    stacked = np.vstack([np.asarray(quantiles[p], dtype=float) for p in probs])
    fails = _finite("quantiles", stacked)
    if not fails and np.any(np.diff(stacked, axis=0) < 0):
        fails.append("quantiles decrease in p")
    return fails


def sdar_one_step_mean(means, params, y_n: float, M: int) -> list[str]:
    """h=1 mean within 5 Monte-Carlo standard errors of alpha + psi(y_n) y_n."""
    exact = params.alpha + psi(params.kind, y_n, params.pf) * y_n
    se = params.sigma / math.sqrt(M)
    fails = _finite("means", means)
    if not fails and abs(means[0] - exact) > 5.0 * se:
        fails.append(f"sdar h=1 mean {means[0]:.6f} vs exact {exact:.6f} (se {se:.2e})")
    return fails


def sdar_forecast(fc, params, y_n: float, H: int, M: int) -> list[str]:
    if fc.horizon != H or len(fc.means) != H:
        return [f"forecast horizon {fc.horizon}, expected {H}"]
    return (sdar_one_step_mean(fc.means, params, y_n, M)
            + quantiles_are_ordered(fc.quantiles))


def setar_forecast(fc, setar, history, H: int, M: int) -> list[str]:
    """SETAR h=1: mean from the active regime, spread equal to its sigma within 3%."""
    if fc.horizon != H or len(fc.means) != H:
        return [f"forecast horizon {fc.horizon}, expected {H}"]
    fails = _finite("means", fc.means) + quantiles_are_ordered(fc.quantiles)
    if fails:
        return fails
    history = np.asarray(history, dtype=float)
    if history[-1] <= setar.threshold:
        c, phi, sigma = setar.c1, setar.phi1, setar.sigma1
    else:
        c, phi, sigma = setar.c2, setar.phi2, setar.sigma2
    exact = c + phi @ history[::-1][: phi.size]
    if abs(fc.means[0] - exact) > 5.0 * sigma / math.sqrt(M):
        fails.append(f"setar h=1 mean {fc.means[0]:.6f} vs exact {exact:.6f}")
    spread = (fc.quantiles[0.75][0] - fc.quantiles[0.25][0]) / IQR_PER_SIGMA
    if abs(spread / sigma - 1.0) > 0.03:
        fails.append(f"setar h=1 spread {spread:.5f} vs regime sigma {sigma:.5f}")
    return fails


def accuracy_is_sane(acc, H: int) -> list[str]:
    """Finite, non-negative errors, and MSFE >= MAFE^2 (Jensen) per horizon."""
    fails = _finite("accuracy", np.concatenate([acc.mafe, acc.msfe, acc.mape]))
    if acc.mafe.size != H:
        fails.append(f"accuracy covers {acc.mafe.size} horizons, expected {H}")
    if not fails:
        if np.any(acc.mafe < 0):
            fails.append("negative mafe")
        if np.any(acc.msfe < acc.mafe**2 * (1.0 - 1e-12)):
            fails.append("msfe below mafe^2")
    return fails


def a1_exit_code(rc: int, kind, pf) -> list[str]:
    """`sdar check` exits 0 exactly when A1 holds, and 3 otherwise."""
    expected = 0 if check_assumptions(kind, pf).a1_satisfied else 3
    return [] if rc == expected else [f"check exit code {rc}, expected {expected}"]


def convergence_exit_code(rc: int, converged: bool) -> list[str]:
    """Exit code 2 is the truthful report of non-convergence, not a failure."""
    expected = 0 if converged else 2
    return [] if rc == expected else [f"exit code {rc}, expected {expected}"]
