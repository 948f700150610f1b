"""Binary kernel SVM training with nonconvex margin losses via ADMM splitting."""

from .admm import (
    AdmmConfig,
    AdmmState,
    IterationTrace,
    TraceRecord,
    admm_run,
    admm_step,
    initial_state,
    stationarity_residual,
)
from .data import Dataset, FeatureScaling, generate_synthetic, load_csv, save_csv
from .errors import (
    DefinitenessError,
    DuplicatePointError,
    FormatVersionError,
    InputError,
    ParseError,
    SplitSvmError,
    TrainingError,
)
from .kernels import GramMatrix, KernelSpec, gram
from .losses import (
    HINGE,
    LOSSES,
    PL2,
    RAMP,
    TLOG,
    MarginLoss,
    get_loss,
    prox_vector,
)
from .model import (
    DESCENT_SLACK,
    RhoCondition,
    TrainedModel,
    decision_values,
    load_model,
    min_eigenvalue,
    predict_labels,
    rho_condition,
    save_model,
    train_multistart,
)

__version__ = "0.1.0"
