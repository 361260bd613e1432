"""State-dependent first-order autoregressive (SDAR) models.

Simulation, quasi-maximum-likelihood estimation with analytic
derivatives and sandwich standard errors, stationarity/ergodicity
checks, Monte-Carlo and exact-mean multi-step forecasting, a two-regime SETAR
baseline, and a forecast-accuracy comparison harness.
"""

from .estimation import (
    FitResult,
    ParamBox,
    aic,
    fit,
    sandwich_cov,
    select_model,
)
from .forecast import (
    AccuracyReport,
    ForecastResult,
    exact_means_sdar,
    mc_forecast_sdar,
    relative_efficiency,
    rolling_evaluate,
    sdar_paths,
)
from .model import (
    SdarParams,
    loglik,
    loglik_grad,
    loglik_hess,
    persistence_series,
    residuals,
    simulate,
)
from .persistence import (
    AssumptionReport,
    PersistenceKind,
    PersistenceParams,
    a1_bound_closed_form,
    a1_bound_numeric,
    check_assumptions,
    psi,
)
from .series import (
    IngestError,
    TimeSeries,
    load_returns,
    log_transform,
    realized_volatility,
    split,
)
from .setar import (
    SetarFit,
    exact_means_setar,
    fit_setar,
    mc_forecast_setar,
    select_setar,
    setar_means,
    setar_paths,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyReport",
    "AssumptionReport",
    "FitResult",
    "ForecastResult",
    "IngestError",
    "ParamBox",
    "PersistenceKind",
    "PersistenceParams",
    "SdarParams",
    "SetarFit",
    "TimeSeries",
    "a1_bound_closed_form",
    "a1_bound_numeric",
    "aic",
    "check_assumptions",
    "exact_means_sdar",
    "exact_means_setar",
    "fit",
    "fit_setar",
    "load_returns",
    "log_transform",
    "loglik",
    "loglik_grad",
    "loglik_hess",
    "mc_forecast_sdar",
    "mc_forecast_setar",
    "persistence_series",
    "psi",
    "realized_volatility",
    "relative_efficiency",
    "residuals",
    "rolling_evaluate",
    "sandwich_cov",
    "sdar_paths",
    "select_model",
    "select_setar",
    "setar_means",
    "setar_paths",
    "simulate",
    "split",
]
