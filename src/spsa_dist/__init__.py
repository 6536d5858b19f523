"""SPSA with interchangeable perturbation distributions.

The package bundles three layers:

* :mod:`spsa_dist.perturbations` and :mod:`spsa_dist.core`: the two
  perturbation laws (Bernoulli and segmented uniform), the gain schedules,
  and the simultaneous-perturbation optimizer itself.
* :mod:`spsa_dist.theory`: closed-form one-step MSE expressions and the
  conditions under which the segmented uniform beats the Bernoulli law for a
  single optimizer step.
* :mod:`spsa_dist.experiments`: a reproducible Monte Carlo harness with
  common-random-number pairing and matched-pairs t-tests, plus the
  :mod:`spsa_dist.cli` front end that reproduces the bundled benchmark
  tables.
"""

from .core import (
    GainSchedule,
    LossFunction,
    ProblemConfig,
    SpsaRun,
    get_loss,
    register_loss,
    registered_losses,
    sp_gradient,
    spsa_run,
)
from .experiments import (
    DivergedRunError,
    ExperimentResult,
    ExperimentSpec,
    MseEstimate,
    PairedComparison,
    TheoryComparison,
    compare_with_theory,
    paired_t_test,
    run_experiment,
    write_csv,
)
from .perturbations import (
    BERNOULLI,
    DISTRIBUTIONS,
    SEGMENTED_UNIFORM,
    Bernoulli,
    MomentSet,
    PerturbationDistribution,
    SegmentedUniform,
    from_name,
)
from .theory import (
    ConditionInput,
    ConditionReport,
    Remark2Checks,
    check_remark2,
    condition_lhs_explicit,
    corollary3_lhs,
    evaluate_condition,
    one_step_mse_quadratic,
    u_bound,
)

__version__ = "0.1.0"

__all__ = [
    "BERNOULLI",
    "Bernoulli",
    "ConditionInput",
    "ConditionReport",
    "DISTRIBUTIONS",
    "DivergedRunError",
    "ExperimentResult",
    "ExperimentSpec",
    "GainSchedule",
    "LossFunction",
    "MomentSet",
    "MseEstimate",
    "PairedComparison",
    "PerturbationDistribution",
    "ProblemConfig",
    "Remark2Checks",
    "SEGMENTED_UNIFORM",
    "SegmentedUniform",
    "SpsaRun",
    "TheoryComparison",
    "check_remark2",
    "compare_with_theory",
    "condition_lhs_explicit",
    "corollary3_lhs",
    "evaluate_condition",
    "from_name",
    "get_loss",
    "one_step_mse_quadratic",
    "paired_t_test",
    "register_loss",
    "registered_losses",
    "run_experiment",
    "sp_gradient",
    "spsa_run",
    "u_bound",
    "write_csv",
]
