"""Command-line front end.

Subcommands:

* ``moments <name>``: print the exact component moments of a perturbation
  law next to a Monte Carlo cross-check.
* ``check <config>``: evaluate the one-step MSE comparison condition for a
  config and print the verdict.
* ``run <config> --out <path>``: run the Monte Carlo experiment and write the
  results CSV to the required ``--out`` path.
* ``reproduce <table2|table3>``: run a bundled benchmark config and print the
  measured MSE table next to the paper's values, which the package stores
  with their tolerances and replicate groups in ``configs/tables.json``.

Exit codes: 0 success, 1 usage or config error, 2 runtime failure (a
diverged run, an I/O error, or an allocation the machine refuses). ``run`` and
``reproduce`` build the CSV header's closed-form lines and open their output
path before any replicate runs, so gains the closed form refuses (exit 1) and
a path the OS will not open for writing (exit 2, with the OS's own message)
fail at once.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import theory
from .config import bundled_config_text, load_config, parse_config, reference_tables
from .experiments import DivergedRunError, _theory_lines, run_experiment, write_csv
from .perturbations import from_name

__all__ = ["main"]

# label, exact moment, and its Monte Carlo estimator from two independent draws
_MOMENT_ROWS = (
    ("E[X]", "mean", lambda x, y: x),
    ("E[Xi/Xj]", "cross_ratio", lambda x, y: x / y),
    ("E[Xi^2/Xj^2]", "ratio_second", lambda x, y: (x * x) / (y * y)),
    ("E[1/X^2]", "inv_second", lambda x, y: 1.0 / (x * x)),
)

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="spsa-dist",
        description="Compare SPSA perturbation distributions analytically and by simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    moments = sub.add_parser("moments", help="print exact moments of a perturbation law")
    moments.add_argument("name", help="distribution name: bernoulli or segmented_uniform")
    moments.add_argument("--draws", type=int, default=1_000_000, help="Monte Carlo cross-check size")
    moments.add_argument("--seed", type=int, default=20260813, help="cross-check seed")
    moments.set_defaults(handler=_cmd_moments)

    check = sub.add_parser("check", help="evaluate the one-step MSE comparison condition")
    check.add_argument("config", help="path to a JSON experiment config")
    check.set_defaults(handler=_cmd_check)

    run = sub.add_parser("run", help="run the Monte Carlo experiment from a config")
    run.add_argument("config", help="path to a JSON experiment config")
    run.add_argument("--out", required=True, help="output CSV path")
    run.set_defaults(handler=_cmd_run)

    reproduce = sub.add_parser("reproduce", help="run a bundled benchmark and compare to reference values")
    tables = reference_tables()
    reproduce.add_argument("table", choices=tables)
    reproduce.add_argument("--reps", type=int, default=None, help="override replicate counts")
    reproduce.add_argument("--seed", type=int, default=None, help="override the master seed")
    reproduce.add_argument("--out", help="output CSV path (default: <table>.csv)")
    reproduce.set_defaults(handler=_cmd_reproduce, tables=tables)
    return parser


def _cmd_moments(args) -> int:
    dist = from_name(args.name)
    if args.draws < 2:
        raise _UsageError("--draws must be at least 2")
    rng = np.random.default_rng(args.seed)
    x = dist.sample_array(rng, args.draws)
    y = dist.sample_array(rng, args.draws)
    exact = dist.exact_moments()
    print(f"moments of the {dist.name} perturbation law "
          f"(Monte Carlo cross-check at {args.draws} draws, seed {args.seed})")
    print(f"{'moment':<14} {'exact':>10} {'value':>12} {'mc_estimate':>12} {'mc_std_err':>11}")
    for label, field, estimator in _MOMENT_ROWS:
        frac = exact[field]
        sample = estimator(x, y)
        mc = float(sample.mean())
        se = float(sample.std(ddof=1) / math.sqrt(sample.size))
        print(
            f"{label:<14} {str(frac):>10} {float(frac):>12.7f} {mc:>12.7f} {se:>11.2e}"
        )
    return 0


def _cmd_check(args) -> int:
    cfg = load_config(args.config)
    spec = cfg.experiment
    inp, source = theory.condition_input_from_problem(
        spec.problem,
        spec.schedule_su,
        spec.schedule_bern,
        third_derivative_bound=cfg.third_derivative_bound,
    )
    report = theory.evaluate_condition(
        inp,
        quadratic=spec.problem.loss.is_quadratic,
        gradient_source=source,
    )
    checks = theory.check_remark2(inp)
    print(report.to_text())
    print(f"gain_ratio_a_ok = {str(checks.ratio_a_ok).lower()}")
    print(f"gain_ratio_c_ok = {str(checks.ratio_c_ok).lower()}")
    print(f"flatness_ok = {str(checks.flatness_ok).lower()}")
    return 0


def _check_out_path(out: str) -> None:
    """Fail before any replicate runs, as opening ``out`` would after them."""
    if not out:
        raise _UsageError("--out must be a non-empty path")
    target = os.path.realpath(out)  # through a dangling symlink, the file the open creates
    created = not os.path.lexists(target)
    open(out, "ab").close()  # the OS refuses a directory, a missing one, no permission
    if created:
        os.remove(target)


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    _theory_lines(cfg.experiment)  # gains the CSV header refuses fail before any replicate runs
    _check_out_path(args.out)
    result = run_experiment(cfg.experiment)
    write_csv(result, args.out)
    for est in result.estimates:
        print(f"k={est.k} {est.distribution}: mse={est.mse:.6g} (se={est.std_error:.3g})")
    for cmp in result.comparisons:
        print(
            f"k={cmp.k} paired: mean_diff={cmp.mean_diff:.6g} t={cmp.t_stat:.4g} "
            f"p={_format_p(cmp.p_value)}"
        )
    print(f"wrote {args.out}")
    return 0


def _format_p(p: float) -> str:
    if p < 1e-10:
        return "<1e-10"
    if p > 1.0 - 1e-10:
        return ">1-1e-10"
    return f"{p:.3g}"


def _cmd_reproduce(args) -> int:
    table = args.tables[args.table]
    cfg = parse_config(bundled_config_text(table["config"]), source=table["config"])
    base = cfg.experiment
    if args.seed is not None:
        base = replace(base, master_seed=args.seed)
    _theory_lines(base)  # one header for every group: they differ in k_values and n_reps
    out = f"{args.table}.csv" if args.out is None else args.out
    _check_out_path(out)
    results = []
    for k_group, default_reps in table["groups"]:
        reps = args.reps if args.reps is not None else default_reps
        spec = replace(base, k_values=tuple(k_group), n_reps=reps)
        results.append(run_experiment(spec))
    estimates = {(est.k, est.distribution): est for res in results for est in res.estimates}
    comparisons = {cmp.k: cmp for res in results for cmp in res.comparisons}

    tol = table["tolerance"]
    print(f"{args.table}: loss {base.problem.loss.name}, seed {base.master_seed}")
    print(
        f"{'k':>5} {'mse_bern':>10} {'ref_bern':>9} {'mse_su':>10} {'ref_su':>9} "
        f"{'p_value':>9} {'n_reps':>8} {'flags':>14}"
    )
    for k, ref_b, ref_s in table["mse"]:
        est_b = estimates[(k, "bernoulli")]
        est_s = estimates[(k, "segmented_uniform")]
        cmp = comparisons[k]
        flag_b = abs(est_b.mse - ref_b) <= max(tol, 4.0 * est_b.std_error)
        flag_s = abs(est_s.mse - ref_s) <= max(tol, 4.0 * est_s.std_error)
        ordering = (est_b.mse - est_s.mse) * (ref_b - ref_s) > 0.0
        flags = ",".join(
            [
                "b_ok" if flag_b else "b_diff",
                "su_ok" if flag_s else "su_diff",
                "order_ok" if ordering else "order_diff",
            ]
        )
        print(
            f"{k:>5} {est_b.mse:>10.4f} {ref_b:>9.4f} {est_s.mse:>10.4f} {ref_s:>9.4f} "
            f"{_format_p(cmp.p_value):>9} {est_b.n_reps:>8} {flags:>14}"
        )
    with open(out, "w", encoding="utf-8", newline="\n") as handle:
        for i, result in enumerate(results):
            if i:
                handle.write("\n")
            write_csv(result, handle)
    print(f"wrote {out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except (_UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DivergedRunError, OSError, MemoryError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
