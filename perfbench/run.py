"""Benchmark of the spsa-dist Monte Carlo harness and its scalar optimizer.

Run from the root of a source checkout:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in fresh single-threaded Python processes that import the
package from ``src/``: several set-up probes (``probe.py``), then one worker
(``worker.py``) that repeats the workload's operation for ``--seconds``
seconds. The outputs are checked against ``oracle.py``, which does not import
the package. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics without tracing, the per-layer metrics with ``--trace 1``. With
``--workload all`` (the default) the three workloads run one after another,
each prints its own line, and the last line merges them with metric names
prefixed by the workload. Details of each run go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = SRC / "spsa_dist" / "configs"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("quartic_long", "quadratic_wide", "scalar_runs")

# Sizes. Each operation lasts seconds, yet is short enough that a run's median
# is taken over several: on the shared 2-core Xeon VM of README.md, CPU speed
# wanders by +-20 % over seconds with nothing else running in the guest.
QUARTIC_REPS = 20_000
QUARTIC_K = (1, 2, 5, 1000)
WIDE_REPS = 1_000_000
WIDE_K = (1, 5, 10)
SCALAR_RUNS = 120  # trajectories per law and round, k_max = 1000 each
SCALAR_PARTS = 12  # operations per round, SCALAR_RUNS / SCALAR_PARTS per law each
SCALAR_K = 1000

SETUP_PROBES = 3  # timed probes per run, after one untimed warm-up
PROBE_TIMEOUT_S = 30
WORKER_GRACE_S = 120  # beyond --seconds, for the last round and the imports
Z_LIMIT = 4.0  # Monte Carlo vs exact value, in standard errors

# One process per workload, one thread per process: the results must not
# depend on how many cores the BLAS or OpenMP runtime finds. Bytecode is
# cached, as after an install, so only the warm-up probe compiles the sources.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
CHILD_ENV.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "rep_iters_per_s": "1/s",
    "peak_rss_mb": "MiB",
}
PER_LAYER_UNITS = {
    "streams.block_calls": "count",
    "streams.block_ms": "ms",
    "streams.ns_per_word": "ns",
    "perturbations.deltas_ms": "ms",
    "perturbations.sample_ms": "ms",
    "core.noise_ms": "ms",
    "core.loss_ms": "ms",
    "core.loss_ns_per_point": "ns",
    "core.sp_gradient_ms": "ms",
    "core.spsa_run_self_ms": "ms",
    "experiments.step_self_ms": "ms",
    "experiments.t_test_ms": "ms",
    "experiments.retained_mb": "MiB",
    "experiments.csv_ms": "ms",
    "theory.ms": "ms",
    "config.parse_ms": "ms",
    "core.import_ms": "ms",
    "experiments.import_ms": "ms",
    "cli.self_ms": "ms",
}
PROBE_LAYERS = ("config.parse_ms", "core.import_ms", "experiments.import_ms")


class BenchmarkError(RuntimeError):
    """The benchmark could not run (missing sources, crashed or hung process)."""


def bundled(name: str) -> dict:
    return json.loads((CONFIGS / f"{name}.json").read_text(encoding="utf-8"))


def default_seed(workload: str) -> int:
    return bundled("quartic" if workload == "quartic_long" else "quadratic")["master_seed"]


def make_inputs(workload: str, seed: int, tmp: Path) -> dict:
    """The workload's request for the worker, its probe config and its size.

    ``rep_iters`` is replicates (or trajectories) x k_max x 2 laws per operation.
    """
    csv_path = str(tmp / f"{workload}.csv")
    if workload == "quartic_long":
        argv = ["reproduce", "table3", "--reps", str(QUARTIC_REPS), "--seed", str(seed),
                "--out", csv_path]
        return {
            "request": {"argv": argv, "csv": csv_path, "parts": 1},
            "probe_config": "bundled:quartic",
            "rep_iters": QUARTIC_REPS * max(QUARTIC_K) * 2,
            "retained_mb": 2 * len(QUARTIC_K) * QUARTIC_REPS * 8 / 2**20,
        }
    if workload == "quadratic_wide":
        document = bundled("quadratic")
        document.update(k_values=list(WIDE_K), n_reps=WIDE_REPS, master_seed=seed)
        config_path = tmp / "quadratic_wide.json"
        config_path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
        return {
            "request": {"argv": ["run", str(config_path), "--out", csv_path], "csv": csv_path,
                        "parts": 1},
            "probe_config": str(config_path),
            "rep_iters": WIDE_REPS * max(WIDE_K) * 2,
            "retained_mb": 2 * len(WIDE_K) * WIDE_REPS * 8 / 2**20,
        }
    return {
        "request": {"seed": seed, "runs_per_part": SCALAR_RUNS // SCALAR_PARTS,
                    "parts": SCALAR_PARTS},
        "probe_config": "bundled:quadratic",
        "rep_iters": SCALAR_RUNS // SCALAR_PARTS * SCALAR_K * 2,
        "retained_mb": 0.0,
    }


def _import_ms(stderr: str, module: str) -> float:
    """Cumulative import time of ``module`` from ``python -X importtime`` output."""
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) / 1e3
    raise BenchmarkError(f"no import time for {module}")


def run_probes(probe_config: str, trace: bool) -> list[dict]:
    flags = ["-X", "importtime"] if trace else []
    command = [sys.executable, *flags, str(HERE / "probe.py"), str(SRC), probe_config]
    probes = []
    for index in range(SETUP_PROBES + 1):
        started = time.monotonic()
        done = subprocess.run(
            command, capture_output=True, text=True, env=CHILD_ENV, timeout=PROBE_TIMEOUT_S
        )
        if done.returncode != 0:
            raise BenchmarkError(f"set-up probe failed:\n{done.stderr}")
        ready, parse_ms = (float(v) for v in done.stdout.split())
        if index == 0:
            continue  # warm-up: byte-compiles the sources and fills the file cache
        probe = {"setup_s": ready - started, "config.parse_ms": parse_ms}
        if trace:
            probe["core.import_ms"] = _import_ms(done.stderr, "spsa_dist.core")
            probe["experiments.import_ms"] = _import_ms(done.stderr, "spsa_dist.experiments")
        probes.append(probe)
    return probes


def run_worker(workload: str, request: dict) -> dict:
    command = [sys.executable, str(HERE / "worker.py"), str(SRC), json.dumps(request)]
    done = subprocess.run(
        command, capture_output=True, text=True, env=CHILD_ENV,
        timeout=request["seconds"] + WORKER_GRACE_S,
    )
    sys.stderr.write(done.stderr)
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchmarkError(f"{workload} worker exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# --- checks against the oracle -------------------------------------------


def parse_results_csv(text: str) -> tuple[dict, dict, dict]:
    """Header fields, per-(k, law) MSE rows and per-k paired rows of a results CSV."""
    header = {}
    body = []
    for line in text.splitlines():
        if line.startswith("# ") and " = " in line:
            key, value = line[2:].split(" = ", 1)
            header[key] = value
        elif line and not line.startswith("#"):
            body.append(line)
    mse, paired = {}, {}
    for row in csv.DictReader(body):
        k = int(row["k"])
        if row["distribution"] == "paired":
            paired[k] = {
                "n": int(row["n_reps"]),
                "mean_diff": float(row["mean_diff"]),
                "t": float(row["t_stat"]),
                "p": float(row["p_value"]),
            }
        else:
            mse[(k, row["distribution"])] = {
                "mse": float(row["mse"]),
                "se": float(row["std_error"]),
                "n": int(row["n_reps"]),
            }
    return header, mse, paired


def _check_estimate(problems, label, mse, se, n, expected, tolerance):
    # a standard error far above the squared errors' own scale would make the
    # z-check void: their coefficient of variation is of order 1 here
    cv = se * math.sqrt(n) / mse if mse > 0 else math.inf
    if not 0.0 < cv <= 10.0:
        problems.append(f"{label}: implausible std_error {se!r} for mse {mse!r} at n={n}")
    if not abs(mse - expected) <= tolerance:
        problems.append(
            f"{label}: mse {mse:.6g} vs expected {expected:.6g} "
            f"(|diff| {abs(mse - expected):.3g} > {tolerance:.3g})"
        )


def check_harness_csv(text: str, seed: int, n_reps: int, expected: dict) -> list[str]:
    """Problems in a results CSV.

    ``expected`` maps (k, law) to (value, floor): the MSE must lie within
    max(floor, 4 SE) of the value.
    """
    problems = []
    header, mse, paired = parse_results_csv(text)
    if header.get("master_seed") != str(seed):
        problems.append(f"CSV master_seed {header.get('master_seed')} != {seed}")
    ks = sorted({k for k, _ in expected})
    if sorted(mse) != sorted(expected) or sorted(paired) != ks:
        problems.append(f"CSV rows {sorted(mse)} / paired {sorted(paired)} != requested k {ks}")
        return problems
    for (k, law), (value, floor) in expected.items():
        row = mse[(k, law)]
        if row["n"] != n_reps:
            problems.append(f"k={k} {law}: n_reps {row['n']} != {n_reps}")
        tolerance = max(floor, Z_LIMIT * row["se"])
        _check_estimate(problems, f"k={k} {law}", row["mse"], row["se"], row["n"], value, tolerance)
    for k in ks:
        pair = paired[k]
        diff = mse[(k, oracle.BERNOULLI)]["mse"] - mse[(k, oracle.SEGMENTED_UNIFORM)]["mse"]
        if not abs(pair["mean_diff"] - diff) <= 1e-9 * max(1.0, abs(diff)):
            problems.append(f"k={k} paired: mean_diff {pair['mean_diff']!r} != {diff!r}")
        if not (0.0 <= pair["p"] <= 1.0) or pair["t"] * pair["mean_diff"] < 0 or pair["n"] != n_reps:
            problems.append(f"k={k} paired: inconsistent row {pair}")
    return problems


def _problem(document: dict, law: str):
    problem = document["problem"]
    gains = document["gains"][law]
    return problem["theta0"], problem["theta_star"], gains["a"], gains["c"], problem["sigma2"]


def quadratic_expected(k_values) -> dict:
    """(k, law) -> exact MSE of the bundled quadratic problem."""
    document = bundled("quadratic")
    expected = {}
    for law in oracle.LAWS:
        theta0, theta_star, a, c, sigma2 = _problem(document, law)
        trace = oracle.quadratic_mse(
            oracle.QUADRATIC_HESSIAN, theta0, theta_star, a, c, sigma2, law, max(k_values)
        )
        for k in k_values:
            expected[(k, law)] = trace[k]
    return expected


def quartic_expected() -> dict:
    """(k, law) -> (reference MSE, absolute tolerance floor) of the bundled quartic problem."""
    document = bundled("quartic")
    expected = {}
    for column, law in enumerate(oracle.LAWS):
        expected[(1, law)] = (oracle.quartic_mse_k1(*_problem(document, law), law), 0.0)
        for k in QUARTIC_K[1:]:
            expected[(k, law)] = (oracle.TABLE3[k][column], oracle.TABLE3_TOLERANCE)
    return expected


def check_quadratic_wide(text: str, seed: int, expected=None) -> list[str]:
    expected = expected or quadratic_expected(WIDE_K)
    problems = check_harness_csv(
        text, seed, WIDE_REPS, {key: (value, 0.0) for key, value in expected.items()}
    )
    # the one-step condition in the header is the exact k = 1 MSE difference
    header, _, _ = parse_results_csv(text)
    lhs = expected[(1, oracle.SEGMENTED_UNIFORM)] - expected[(1, oracle.BERNOULLI)]
    reported = float(header.get("theory_lhs_explicit", "nan"))
    if not abs(reported - lhs) <= 1e-9 * abs(lhs):
        problems.append(f"theory_lhs_explicit {reported!r} != exact {lhs!r}")
    verdict = "su_favored" if lhs < 0 else "bernoulli_favored_or_inconclusive"
    if header.get("theory_verdict") != verdict:
        problems.append(f"theory_verdict {header.get('theory_verdict')} != {verdict}")
    return problems


def check_quartic_long(text: str, seed: int, expected=None) -> list[str]:
    return check_harness_csv(text, seed, QUARTIC_REPS, expected or quartic_expected())


def check_scalar_runs(text: str, seed: int, expected=None) -> list[str]:
    expected = expected or quadratic_expected((SCALAR_K,))
    theta_star = bundled("quadratic")["problem"]["theta_star"]
    parts = [json.loads(line) for line in text.splitlines()]
    if len(parts) != SCALAR_PARTS:
        return [f"{len(parts)} of {SCALAR_PARTS} operations gave output"]
    problems = []
    for law in oracle.LAWS:
        out = {key: sum((part[law][key] for part in parts), []) for key in parts[0][law]}
        if len(out["final_theta"]) != SCALAR_RUNS:
            problems.append(f"{law}: {len(out['final_theta'])} runs, not {SCALAR_RUNS}")
            continue
        if any(out["diverged"]):
            problems.append(f"{law}: {sum(out['diverged'])} runs diverged")
        if any(n != 2 * SCALAR_K for n in out["n_loss_evals"]):
            problems.append(f"{law}: loss evaluations per run {set(out['n_loss_evals'])} != {2 * SCALAR_K}")
        errors = [sum((t - s) ** 2 for t, s in zip(theta, theta_star)) for theta in out["final_theta"]]
        if not all(math.isfinite(e) for e in errors):
            problems.append(f"{law}: non-finite final iterate")
            continue
        mse = statistics.fmean(errors)
        se = statistics.stdev(errors) / math.sqrt(len(errors))
        _check_estimate(
            problems, f"k={SCALAR_K} {law}", mse, se, len(errors),
            expected[(SCALAR_K, law)], Z_LIMIT * se,
        )
    return problems


CHECKS = {
    "quartic_long": check_quartic_long,
    "quadratic_wide": check_quadratic_wide,
    "scalar_runs": check_scalar_runs,
}


# --- one workload ----------------------------------------------------------


def _median_metrics(rows: list[dict], names) -> dict:
    return {name: statistics.median(row[name] for row in rows) for name in names}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    inputs = make_inputs(workload, seed, tmp)
    probes = run_probes(inputs["probe_config"], trace)
    request = dict(
        inputs["request"],
        workload=workload,
        seconds=seconds,
        trace=trace,
        retained_mb=inputs["retained_mb"],
    )
    report = run_worker(workload, request)

    problems = []
    if len(set(report["digests"])) > 1:
        problems.append("operations with the same inputs gave different outputs")
    problems += CHECKS[workload](report["output"], seed)
    for problem in problems:
        print(f"{workload}: CHECK FAILED: {problem}", file=sys.stderr)

    run_s = statistics.median(report["op_seconds"])
    if trace:
        metrics = _median_metrics(report["layers"], set(PER_LAYER_UNITS) - set(PROBE_LAYERS))
        metrics.update(_median_metrics(probes, PROBE_LAYERS))
        units = PER_LAYER_UNITS
        op_ms = statistics.median(t["op_ns"] / 1e6 for t in report["traced"])
        own_ms = statistics.median(t["bench_self_ns"] / 1e6 for t in report["traced"])
        print(
            f"{workload}: traced run_s {run_s:.4f} s; layer self times sum to "
            f"{op_ms - own_ms:.1f} ms of {op_ms:.1f} ms, benchmark's own share {own_ms:.1f} ms",
            file=sys.stderr,
        )
    else:
        metrics = {
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "run_s": run_s,
            "rep_iters_per_s": inputs["rep_iters"] / run_s,
            "peak_rss_mb": report["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
    result = {
        "correct": not problems,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    details = dict(workload=workload, seed=seed, seconds=seconds, trace=trace,
                   problems=problems, probes=probes, result=result, worker=report)
    suffix = ".trace" if trace else ""
    (OUT_DIR / f"{workload}{suffix}.json").write_text(json.dumps(details, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed (default: the bundled config's)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="repeat each operation until this many seconds have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and not 0 <= args.seed < 2**63:
        parser.error("--seed must be in [0, 2**63)")
    if not (SRC / "spsa_dist" / "__init__.py").is_file():
        print(f"error: no spsa_dist sources under {SRC}", file=sys.stderr)
        return 2

    # turn SIGTERM into SystemExit, so subprocess.run kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    OUT_DIR.mkdir(exist_ok=True)
    results = {}
    try:
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            for name in names:
                seed = default_seed(name) if args.seed is None else args.seed
                results[name] = run_workload(name, seed, args.seconds, bool(args.trace), Path(tmp))
                print(json.dumps(results[name]), flush=True)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) > 1:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
