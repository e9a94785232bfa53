"""Multivariate conditional outlier detection.

Learns per-output-dimension conditional factors P(y_i | x, y_-i) over
datasets with real inputs and binary outputs, maps every instance to the
probabilities its observed outputs received, and ranks instances by
reliability-weighted negative log scores. Ships LOF and an
independent-factor product as baselines, plus an outlier injection
simulator and a TPAR/ATPAR evaluation harness.
"""

__version__ = "0.1.0"

from types import ModuleType as _Module

from .errors import (ConfigError, DataError, DomainError, McodeError,
                     NumericalError)
from .dataset import (Dataset, PerturbationLog, RNG_ALGORITHM,
                      StandardizationStats, inject_outliers, load_csv,
                      load_log, make_rng, round_half_up, save_csv, save_log,
                      standardize)
from .optim import (ConstantFactor, DEFAULT_LAMBDA_GRID, LogisticFactor,
                    PROB_EPS, cross_validate_lambda, penalized_nll,
                    train_logistic)
from .model import (CvLambda, FULL_CONDITIONAL, FixedLambda, INDEPENDENT,
                    McodeModel, RhoMatrix, estimate_rho, fit_mcode)
from .scoring import (LocalWeightMatrix, NeighborIndex, ScoreVector,
                      global_weights, local_weights, rank_descending,
                      score_lrw, score_prod, score_rw)
from .lof import LofConfig, lof_scores
from .evaluation import (METHODS, atpar, run_experiment, score_methods,
                         tpar, tpar_curve)

# the names imported above; importing them bound their submodules too,
# which a star import must not
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _Module)]
