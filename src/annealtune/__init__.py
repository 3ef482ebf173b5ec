"""Multi-objective simulated-annealing hyperparameter search.

Searches a categorical CNN hyperparameter space against two minimized
objectives (validation error rate, forward-pass FLOPs), keeps every
non-dominated solution in an archive, and evaluates configurations with a
from-scratch text CNN or with instant synthetic objectives.
"""

from .annealer import (
    AnnealerState,
    AnnealingSchedule,
    CalibrationError,
    CalibrationReport,
    RunResult,
    StepRecord,
    acceptance_probability,
    calibrate_initial_temperature,
    cool,
    initial_temperature,
    plan_schedule,
    run,
    step,
)
from .corpus import (
    CvPolicy,
    DataError,
    FixedTestPolicy,
    HoldoutPolicy,
    LabeledSentence,
    PreparedCorpus,
    load_cr,
    load_mr,
    load_trec,
    make_splits,
    synthetic_corpus,
    tokenize,
)
from .evaluator import (
    EvaluationCache,
    FlopsBreakdown,
    SyntheticEvaluator,
    TextCnnEvaluator,
    early_termination_check,
    estimate_flops,
    flops_ceiling,
)
from .pareto import (
    ArchiveAction,
    ArchiveEntry,
    ObjectiveVector,
    ParetoArchive,
    dominates,
    scalar_deterioration,
    two_objective_front,
)
from .search_space import (
    Configuration,
    ParamDomain,
    RunConfig,
    SearchSpace,
    default_search_space,
    enumerate_space,
    load_run_config,
    neighbor,
    random_configuration,
)
from .textcnn import (
    DivergenceError,
    TextCnnModel,
    TrainingSettings,
    backward,
    forward,
    init_model,
    loss,
    train,
)

__version__ = "0.1.0"
