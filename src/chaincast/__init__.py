"""Staged daily-price forecasting toolkit.

The chain: ARIMA models per asset, technical indicators on the target,
stepwise-selected regression on the combined features, and a small neural
network on the selected subset.  Each stage is importable on its own; the
`pipeline` module runs them end to end from one config file, and the
``chaincast`` executable wraps both.
"""

from .arima import ArimaFit, ArimaSpec, fit, rolling_one_step, select_order
from .errors import ChaincastError, DataFormatError, FitError, RankDeficiencyError, \
    StageError
from .indicators import IndicatorParams, IndicatorSet, compute, ema, rsi, \
    stochastic_d, stochastic_k, williams_r
from .ingest import DEFAULT_SPLIT, PriceFrame, SplitSpec, \
    align_calendars, parse_csv, serialize, split, write_csv
from .metrics import accuracy, mape
from .neuralnet import MlpModel, Scaler, SweepResult, TrainConfig, TrainReport, \
    fit_scaler, gradient_check, sweep, train
from .pipeline import PipelineConfig, PipelineReport, load_config, run
from .regression import FeatureMatrix, RegressionFit, StepwiseTrace, \
    build_features, ols, stepwise
from .series import Correlogram, Series, WhitenessReport, acf, difference, \
    integrate, ljung_box, pacf, suggest_d

__version__ = "0.1.0"
