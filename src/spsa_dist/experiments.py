"""Monte Carlo harness comparing the two perturbation laws by MSE.

For each replicate the harness runs the optimizer once per distribution to
the largest requested iteration count, recording the squared error
||theta_k - theta*||^2 at every requested k from that single trajectory. The
two runs of a replicate share the same noise stream (common random numbers)
while each distribution draws its perturbations from its own stream; this is
the pairing behind the matched-pairs t-test. The one-sided alternative is
that the Bernoulli law has the larger MSE, matching the convention that small
p-values favor the segmented uniform.

All randomness comes from the counter-addressed streams in
:mod:`spsa_dist.streams`, so results are bit-identical for a given
(spec, master_seed) no matter how replicates are chunked, and identical
reruns produce byte-identical CSV files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from . import streams, theory
from .core import ProblemConfig, GainSchedule, sp_gradient, standard_normal_from_uniform
from .perturbations import BERNOULLI, SEGMENTED_UNIFORM, PerturbationDistribution

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "PAIRING_NOTE",
    "T_TEST_NOTE",
    "ExperimentSpec",
    "MseEstimate",
    "PairedComparison",
    "TTestResult",
    "TheoryComparison",
    "ExperimentResult",
    "DivergedRunError",
    "run_experiment",
    "paired_t_test",
    "compare_with_theory",
    "render_csv",
    "write_csv",
]

DEFAULT_CHUNK_SIZE = 1 << 18

PAIRING_NOTE = "shared noise stream per replicate; independent perturbation streams"
T_TEST_NOTE = "one-sided matched pairs; H1: mse(bernoulli) > mse(segmented_uniform)"

# Fixed processing order; also the row order of the output tables.
_DISTRIBUTIONS: tuple[tuple[str, PerturbationDistribution, int], ...] = (
    ("bernoulli", BERNOULLI, streams.BERNOULLI_STREAM),
    ("segmented_uniform", SEGMENTED_UNIFORM, streams.SEGMENTED_UNIFORM_STREAM),
)


class DivergedRunError(RuntimeError):
    """A replicate produced a non-finite iterate; the experiment is aborted."""

    def __init__(self, replicate: int, distribution: str, iteration: int):
        self.replicate = replicate
        self.distribution = distribution
        self.iteration = iteration
        super().__init__(
            f"replicate {replicate} diverged under {distribution} at iteration {iteration}"
        )


@dataclass(frozen=True)
class ExperimentSpec:
    problem: ProblemConfig
    schedule_su: GainSchedule
    schedule_bern: GainSchedule
    k_values: tuple[int, ...]
    n_reps: int
    master_seed: int

    def __post_init__(self):
        object.__setattr__(self, "k_values", tuple(int(k) for k in self.k_values))
        if not self.k_values:
            raise ValueError("k_values must be non-empty")
        if any(k < 1 for k in self.k_values):
            raise ValueError("k_values must be positive integers")
        if list(self.k_values) != sorted(set(self.k_values)):
            raise ValueError("k_values must be strictly increasing")
        if self.n_reps < 2:
            raise ValueError("n_reps must be at least 2 (the t-test needs a variance)")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must be a 64-bit nonnegative integer")

    def schedule_for(self, distribution: str) -> GainSchedule:
        return self.schedule_su if distribution == "segmented_uniform" else self.schedule_bern


@dataclass(frozen=True)
class MseEstimate:
    distribution: str
    k: int
    mse: float
    std_error: float
    n_reps: int


@dataclass(frozen=True)
class PairedComparison:
    """Matched-pairs comparison at one k; mean_diff is MSE_bernoulli - MSE_su."""

    k: int
    mean_diff: float
    t_stat: float
    p_value: float
    n_pairs: int


@dataclass(frozen=True)
class TTestResult:
    t_stat: float
    p_value: float
    degenerate: bool = False


@dataclass(frozen=True)
class TheoryComparison:
    """Monte Carlo vs closed-form one-step MSE difference (su minus bernoulli)."""

    mc_diff: float
    theory_diff: float
    paired_std_error: float
    consistent: bool


@dataclass(frozen=True)
class ExperimentResult:
    spec: ExperimentSpec
    squared_errors: dict[tuple[str, int], np.ndarray]
    estimates: tuple[MseEstimate, ...]
    comparisons: tuple[PairedComparison, ...]


def paired_t_test(diffs) -> TTestResult:
    """Matched-pairs t-test on per-replicate differences.

    t = mean(d) / (sd(d) / sqrt(n)) with the n-1 sample standard deviation;
    the p-value is the upper tail of Student's t with n-1 degrees of freedom.
    Zero-variance input degenerates to p = 0 or 1 by the sign of the mean,
    p = 0.5 when the mean is zero as well.
    """
    d = np.asarray(diffs, dtype=float)
    if d.ndim != 1 or d.size < 2:
        raise ValueError("paired_t_test needs a 1-D sample of size >= 2")
    n = d.size
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        if mean > 0.0:
            return TTestResult(t_stat=math.inf, p_value=0.0, degenerate=True)
        if mean < 0.0:
            return TTestResult(t_stat=-math.inf, p_value=1.0, degenerate=True)
        return TTestResult(t_stat=0.0, p_value=0.5, degenerate=True)
    t_stat = mean / (sd / math.sqrt(n))
    p_value = float(stats.t.sf(t_stat, n - 1))
    return TTestResult(t_stat=t_stat, p_value=p_value)


def run_experiment(spec: ExperimentSpec, *, chunk_size: int = DEFAULT_CHUNK_SIZE) -> ExperimentResult:
    """Estimate the MSE of both laws at every requested k, with pairing.

    Replicates are processed in chunks of ``chunk_size``; the chunking (and
    any splitting across workers that respects the stream addresses) has no
    effect on the output. A non-finite iterate aborts the whole experiment
    with a :class:`DivergedRunError` naming the smallest diverging replicate,
    its first iteration and law: silent dropping would bias the estimates.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    problem = spec.problem
    p = problem.p
    n = spec.n_reps
    sigma = math.sqrt(problem.sigma2)
    theta_star = np.asarray(problem.theta_star)
    theta0 = np.asarray(problem.theta0)
    k_max = spec.k_values[-1]
    wanted_k = set(spec.k_values)

    squared_errors = {
        (name, k): np.empty(n) for name, _, _ in _DISTRIBUTIONS for k in spec.k_values
    }

    for start in range(0, n, chunk_size):
        stop = min(start + chunk_size, n)
        rows = stop - start
        theta = {
            name: np.broadcast_to(theta0, (rows, p)).copy() for name, _, _ in _DISTRIBUTIONS
        }
        first_bad = None  # per row, the first k * len(_DISTRIBUTIONS) + law index to diverge
        for k in range(k_max):
            u_noise = streams.uniform_block(
                spec.master_seed,
                streams.NOISE_STREAM,
                n_reps=n,
                words_per_rep=2,
                iteration=k,
                start=start,
                stop=stop,
            )
            eps = sigma * standard_normal_from_uniform(u_noise)
            for index, (name, dist, stream_tag) in enumerate(_DISTRIBUTIONS):
                draws = dist.uniform_draws_per_component
                u_pert = streams.uniform_block(
                    spec.master_seed,
                    stream_tag,
                    n_reps=n,
                    words_per_rep=p * draws,
                    iteration=k,
                    start=start,
                    stop=stop,
                )
                delta = dist.deltas_from_uniforms(u_pert.reshape(rows, p, draws))
                schedule = spec.schedule_for(name)
                with np.errstate(over="ignore", invalid="ignore"):
                    ghat = sp_gradient(
                        problem, theta[name], schedule.gain_c(k), delta, eps[:, 0], eps[:, 1]
                    )
                    current = theta[name] - schedule.gain_a(k) * ghat
                if not np.isfinite(current).all():
                    if first_bad is None:
                        first_bad = np.full(rows, -1)
                    newly = ~np.isfinite(current).all(axis=1) & (first_bad < 0)
                    first_bad[newly] = k * len(_DISTRIBUTIONS) + index
                    if newly[0]:  # no earlier row can diverge, so skip the rest of the chunk
                        raise DivergedRunError(start, name, k)
                theta[name] = current
            if (k + 1) in wanted_k:
                for name, _, _ in _DISTRIBUTIONS:
                    err = theta[name] - theta_star
                    squared_errors[(name, k + 1)][start:stop] = (err * err).sum(axis=1)
        # earlier chunks ran clean, so the smallest diverged row here is the first overall
        if first_bad is not None:
            bad = int(np.flatnonzero(first_bad >= 0)[0])
            iteration, law = divmod(int(first_bad[bad]), len(_DISTRIBUTIONS))
            raise DivergedRunError(start + bad, _DISTRIBUTIONS[law][0], iteration)

    estimates = []
    comparisons = []
    for k in spec.k_values:
        for name, _, _ in _DISTRIBUTIONS:
            se = squared_errors[(name, k)]
            estimates.append(
                MseEstimate(
                    distribution=name,
                    k=k,
                    mse=float(se.mean()),
                    std_error=float(se.std(ddof=1) / math.sqrt(n)),
                    n_reps=n,
                )
            )
        d = squared_errors[("bernoulli", k)] - squared_errors[("segmented_uniform", k)]
        t_res = paired_t_test(d)
        comparisons.append(
            PairedComparison(
                k=k,
                mean_diff=float(d.mean()),
                t_stat=t_res.t_stat,
                p_value=t_res.p_value,
                n_pairs=n,
            )
        )
    return ExperimentResult(
        spec=spec,
        squared_errors=squared_errors,
        estimates=tuple(estimates),
        comparisons=tuple(comparisons),
    )


def compare_with_theory(spec: ExperimentSpec) -> TheoryComparison:
    """Check the k = 1 Monte Carlo MSE difference against the closed form.

    Only defined for quadratic losses (where the closed form is exact) and
    for specs that request exactly k = 1. Consistency means the paired Monte
    Carlo estimate of mse_su - mse_bernoulli lies within four paired standard
    errors of the analytic value.
    """
    if not spec.problem.loss.is_quadratic:
        raise ValueError("compare_with_theory requires a quadratic loss")
    if spec.k_values != (1,):
        raise ValueError("compare_with_theory requires k_values == (1,)")
    result = run_experiment(spec)
    d = (
        result.squared_errors[("segmented_uniform", 1)]
        - result.squared_errors[("bernoulli", 1)]
    )
    mc_diff = float(d.mean())
    paired_se = float(d.std(ddof=1) / math.sqrt(d.size))
    inp, _ = theory.condition_input_from_problem(
        spec.problem, spec.schedule_su, spec.schedule_bern
    )
    theory_diff = theory.condition_lhs_explicit(inp)
    consistent = abs(mc_diff - theory_diff) <= 4.0 * paired_se
    return TheoryComparison(
        mc_diff=mc_diff,
        theory_diff=theory_diff,
        paired_std_error=paired_se,
        consistent=consistent,
    )


def _format_number(value: float) -> str:
    return repr(float(value))


def render_csv(result: ExperimentResult) -> str:
    """Render results as CSV text with a commented metadata header.

    MSE rows carry (mse, std_error); comparison rows are tagged with
    distribution "paired" and carry (mean_diff, t_stat, p_value). Output is a
    deterministic function of the result, so reruns of the same spec yield
    byte-identical files.
    """
    spec = result.spec
    problem = spec.problem
    lines = [
        "# spsa-dist experiment results",
        f"# loss = {problem.loss.name}",
        f"# dimension = {problem.p}",
        f"# theta0 = {', '.join(_format_number(v) for v in problem.theta0)}",
        f"# theta_star = {', '.join(_format_number(v) for v in problem.theta_star)}",
        f"# sigma2 = {_format_number(problem.sigma2)}",
        "# noise = gaussian",
        f"# gain_bernoulli_a = {_format_number(spec.schedule_bern.a)}",
        f"# gain_bernoulli_c = {_format_number(spec.schedule_bern.c)}",
        f"# gain_segmented_uniform_a = {_format_number(spec.schedule_su.a)}",
        f"# gain_segmented_uniform_c = {_format_number(spec.schedule_su.c)}",
        f"# k_values = {', '.join(str(k) for k in spec.k_values)}",
        f"# n_reps = {spec.n_reps}",
        f"# master_seed = {spec.master_seed}",
        f"# pairing = {PAIRING_NOTE}",
        f"# t_test = {T_TEST_NOTE}",
    ]
    if problem.loss.is_quadratic:
        inp, source = theory.condition_input_from_problem(
            problem, spec.schedule_su, spec.schedule_bern
        )
        report = theory.evaluate_condition(inp, quadratic=True, gradient_source=source)
        lines.append(f"# theory_condition = {report.which_condition}")
        lines.append(f"# theory_lhs_explicit = {_format_number(report.lhs_explicit)}")
        lines.append(f"# theory_verdict = {report.verdict}")
    lines.append("k,distribution,mse,std_error,n_reps,mean_diff,t_stat,p_value")
    by_k: dict[int, list[MseEstimate]] = {}
    for est in result.estimates:
        by_k.setdefault(est.k, []).append(est)
    comparison_by_k = {cmp.k: cmp for cmp in result.comparisons}
    for k in spec.k_values:
        for est in by_k[k]:
            lines.append(
                f"{k},{est.distribution},{_format_number(est.mse)},"
                f"{_format_number(est.std_error)},{est.n_reps},,,"
            )
        cmp = comparison_by_k[k]
        lines.append(
            f"{k},paired,,,{cmp.n_pairs},{_format_number(cmp.mean_diff)},"
            f"{_format_number(cmp.t_stat)},{_format_number(cmp.p_value)}"
        )
    return "\n".join(lines) + "\n"


def write_csv(result: ExperimentResult, path_or_file) -> None:
    text = render_csv(result)
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
        return
    with open(path_or_file, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
