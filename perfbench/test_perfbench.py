"""Tests of the benchmark itself: its oracles, its checks and its output.

    python3 -m pytest perfbench/test_perfbench.py

The oracle tests need no harness run. The output tests run each workload
for one second, which is one round of operations each (about 1.5 minutes
in all).
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# --- the oracles ---------------------------------------------------------------


def test_quadrature_integrates_density_and_second_moment():
    points, weights = oracle.segmented_uniform_rule()
    assert math.isclose(weights.sum(), 1.0, rel_tol=1e-13)
    assert math.isclose((weights * points**2).sum(), 1.0, rel_tol=1e-13)
    assert math.isclose((weights / points**2).sum(), 100 / 61, rel_tol=1e-12)
    assert abs((weights * points).sum()) < 1e-14


def _one_step_by_enumeration(law, a, c, theta0=(0.3, 0.3), sigma2=1.0):
    a0, c0 = oracle.gain_a(a, 0), oracle.gain_c(c, 0)
    args = (oracle.quadratic_loss, theta0, (0.0, 0.0), a0, c0, sigma2)
    if law == oracle.BERNOULLI:
        return float(oracle.one_step_mse_given_delta(*args, oracle.sign_patterns(2)).mean())
    points, weights = oracle.segmented_uniform_rule()
    grid = np.stack(np.meshgrid(points, points, indexing="ij"), axis=-1)
    return float(np.einsum("i,j,ij->", weights, weights, oracle.one_step_mse_given_delta(*args, grid)))


@pytest.mark.parametrize("law, a", [(oracle.BERNOULLI, 0.01897), (oracle.SEGMENTED_UNIFORM, 0.00167)])
def test_recursion_at_k1_equals_direct_expectation(law, a):
    recursion = oracle.quadratic_mse(oracle.QUADRATIC_HESSIAN, (0.3, 0.3), (0, 0), a, 0.1, 1.0, law, 1)
    assert math.isclose(recursion[1], _one_step_by_enumeration(law, a, 0.1), rel_tol=1e-12)


def test_oracle_reference_values():
    expected = run.quadratic_expected((1, 5, 10, 1000))
    published = {1: (0.19118, 0.17980), 5: (0.20915, 0.17921),
                 10: (0.21584, 0.17865), 1000: (0.10682, 0.16188)}
    for k, values in published.items():
        for law, value in zip(oracle.LAWS, values):
            assert round(expected[(k, law)], 5) == value
    quartic = run.quartic_expected()
    assert round(quartic[(1, oracle.BERNOULLI)][0], 5) == 1.78195
    assert round(quartic[(1, oracle.SEGMENTED_UNIFORM)][0], 5) == 1.52687


# --- the benchmark's output ---------------------------------------------------------


def _run(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seconds", "1",
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=HERE.parent, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    details = json.loads((run.OUT_DIR / f"{workload}{'.trace' if trace else ''}.json").read_text())
    return json.loads(done.stdout.strip().splitlines()[-1]), details


@pytest.fixture(scope="module", params=run.WORKLOADS)
def untraced(request):
    return request.param, *_run(request.param, 0)


def _assert_metrics(result, declared):
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float)) and math.isfinite(reported["value"])


def test_untraced_run_reports_every_end_to_end_metric(untraced):
    workload, result, details = untraced
    _assert_metrics(result, BENCHMARK["end_to_end"])
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in BENCHMARK["end_to_end"])
    assert details["problems"] == []


def test_wrong_oracle_value_fails_the_check(untraced):
    workload, _, details = untraced
    output, seed = details["worker"]["output"], details["seed"]
    check = run.CHECKS[workload]
    if workload == "quartic_long":
        expected = run.quartic_expected()
        assert check(output, seed, expected) == []
        key = (1, oracle.BERNOULLI)
        expected[key] = (2.0 * expected[key][0], 0.0)
    else:
        expected = run.quadratic_expected(run.WIDE_K if workload == "quadratic_wide" else (run.SCALAR_K,))
        assert check(output, seed, expected) == []
        key = max(expected)  # k = 1 also feeds the theory check; a later k does not
        expected[key] *= 2.0
    problems = check(output, seed, expected)
    assert len(problems) == 1 and problems[0].startswith(f"k={key[0]} {key[1]}: mse")


def test_traced_run_reports_every_per_layer_metric():
    result, details = _run("quadratic_wide", 1)
    _assert_metrics(result, BENCHMARK["per_layer"])
    assert result["metrics"]["streams.block_calls"]["value"] == 120
    # the wrapped layers account for the traced operation, bar the benchmark's own code
    for traced in details["worker"]["traced"]:
        assert traced["bench_self_ns"] < 0.01 * traced["op_ns"]


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "scalar_runs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
