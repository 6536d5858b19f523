import json
import math
import os
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from spsa_dist import cli, core
from spsa_dist.config import BUNDLED_CONFIGS, bundled_config_text, reference_tables
from spsa_dist.core import LossFunction, register_loss
from spsa_dist.perturbations import from_name
from spsa_dist.theory import (
    condition_input_from_problem,
    condition_lhs_explicit,
    corollary3_lhs,
    u_bound,
)


@pytest.fixture()
def quadratic_path(tmp_path):
    path = tmp_path / "quadratic.json"
    path.write_text(bundled_config_text("quadratic"), encoding="utf-8")
    return path


def small_run_doc(k_values=(1,), n_reps=500):
    doc = json.loads(bundled_config_text("quadratic"))
    doc["k_values"] = list(k_values)
    doc["n_reps"] = n_reps
    return doc


def write_doc(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestMoments:
    def test_segmented_uniform_table(self, capsys):
        assert cli.main(["moments", "segmented_uniform", "--draws", "50000"]) == 0
        out = capsys.readouterr().out
        assert "100/61" in out
        assert "1.6393443" in out
        assert "E[1/X^2]" in out

    def test_bernoulli_table(self, capsys):
        assert cli.main(["moments", "bernoulli", "--draws", "20000"]) == 0
        out = capsys.readouterr().out
        assert "E[Xi^2/Xj^2]" in out

    @pytest.mark.parametrize("name", ("bernoulli", "segmented_uniform"))
    def test_whole_output(self, capsys, name):
        draws, seed = 20000, 7
        assert cli.main(["moments", name, "--draws", str(draws), "--seed", str(seed)]) == 0
        dist = from_name(name)
        rng = np.random.default_rng(seed)
        x = dist.sample_array(rng, draws)
        y = dist.sample_array(rng, draws)
        inv_second = {"bernoulli": Fraction(1), "segmented_uniform": Fraction(100, 61)}[name]
        rows = (
            ("E[X]", Fraction(0), x),
            ("E[Xi/Xj]", Fraction(0), x / y),
            ("E[Xi^2/Xj^2]", inv_second, (x * x) / (y * y)),
            ("E[1/X^2]", inv_second, 1.0 / (x * x)),
        )
        expected = [
            f"moments of the {name} perturbation law "
            f"(Monte Carlo cross-check at {draws} draws, seed {seed})",
            "moment              exact        value  mc_estimate  mc_std_err",
        ]
        for label, exact, sample in rows:
            se = sample.std(ddof=1) / math.sqrt(draws)
            expected.append(
                f"{label:<14} {str(exact):>10} {float(exact):>12.7f} "
                f"{sample.mean():>12.7f} {se:>11.2e}"
            )
        assert capsys.readouterr().out == "\n".join(expected) + "\n"

    def test_unknown_name_rejected(self, capsys):
        assert cli.main(["moments", "uniform"]) == 1
        err = capsys.readouterr().err
        assert "not a valid SPSA perturbation distribution" in err

    def test_deterministic_given_seed(self, capsys):
        cli.main(["moments", "bernoulli", "--draws", "10000", "--seed", "5"])
        first = capsys.readouterr().out
        cli.main(["moments", "bernoulli", "--draws", "10000", "--seed", "5"])
        assert capsys.readouterr().out == first

    def test_too_few_draws_is_usage_error(self, capsys):
        assert cli.main(["moments", "bernoulli", "--draws", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --draws must be at least 2\n"
        assert captured.out == ""

    def test_negative_seed_is_usage_error(self, capsys):
        assert cli.main(["moments", "bernoulli", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --seed must be a nonnegative integer\n"
        assert captured.out == ""

    def test_refused_allocation_is_runtime_failure(self, capsys):
        # 10**18 draws need 6.94 EiB, which numpy refuses before allocating
        assert cli.main(["moments", "bernoulli", "--draws", str(10**18)]) == 2
        assert capsys.readouterr().err.startswith("runtime failure: Unable to allocate")


class TestCheck:
    def test_reference_config(self, capsys, quadratic_path, quadratic_spec):
        assert cli.main(["check", str(quadratic_path)]) == 0
        out = capsys.readouterr().out
        inp, _ = condition_input_from_problem(
            quadratic_spec.problem, quadratic_spec.schedule_su, quadratic_spec.schedule_bern
        )
        assert f"lhs_explicit = {corollary3_lhs(inp)!r}" in out
        assert "condition = corollary3" in out
        assert "verdict = su_favored" in out
        assert "gain_ratio_a_ok = true" in out
        assert "gain_ratio_c_ok = false" in out

    def test_equal_gains_flip_verdict(self, capsys, tmp_path):
        doc = small_run_doc()
        doc["gains"]["segmented_uniform"] = dict(doc["gains"]["bernoulli"])
        assert cli.main(["check", str(write_doc(tmp_path, doc))]) == 0
        out = capsys.readouterr().out
        assert "verdict = bernoulli_favored_or_inconclusive" in out
        lhs = float(out.split("lhs_explicit = ")[1].split("\n")[0])
        assert lhs > 0.0

    def test_corollary3_needs_p2(self, capsys, tmp_path):
        if "sphere_3d" not in core.registered_losses():
            def sphere(theta):
                theta = np.asarray(theta, dtype=float)
                return (theta * theta).sum(axis=-1)

            register_loss(
                LossFunction(
                    name="sphere_3d",
                    evaluator=sphere,
                    gradient=lambda t: 2.0 * np.asarray(t, dtype=float),
                    is_quadratic=True,
                    dimension=3,
                )
            )
        doc = small_run_doc()
        doc["problem"].update(
            {"loss": "sphere_3d", "theta_star": [0, 0, 0], "theta0": [1, 1, 1]}
        )
        # a quadratic loss at p = 3 is Corollary 2, not Corollary 3
        assert cli.main(["check", str(write_doc(tmp_path, doc))]) == 0
        out = capsys.readouterr().out
        assert "condition = corollary2" in out
        assert "note = " not in out

    def test_quartic_without_bound_notes_the_remainder(self, capsys, tmp_path):
        doc = json.loads(bundled_config_text("quartic"))
        assert cli.main(["check", str(write_doc(tmp_path, doc))]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "condition = theorem1" in lines
        assert not any(line.startswith(("u_bound", "lhs_conservative")) for line in lines)
        assert (
            "note = loss is not quadratic and no third-derivative bound was supplied; the "
            "order-c0^2 remainder is not included in the evaluated value"
        ) in lines

    def test_quartic_with_bound_is_corollary1(self, capsys, tmp_path, quartic_spec):
        doc = json.loads(bundled_config_text("quartic"))
        doc["third_derivative_bound"] = 24.0
        assert cli.main(["check", str(write_doc(tmp_path, doc))]) == 0
        lines = capsys.readouterr().out.splitlines()
        inp, _ = condition_input_from_problem(
            quartic_spec.problem,
            quartic_spec.schedule_su,
            quartic_spec.schedule_bern,
            third_derivative_bound=24.0,
        )
        bound = u_bound(inp)
        assert "condition = corollary1" in lines
        assert f"u_bound = {bound!r}" in lines
        assert f"lhs_conservative = {condition_lhs_explicit(inp) + bound!r}" in lines
        assert not any(line.startswith("note") for line in lines)

    def test_overflow_exit_code(self, capsys, tmp_path):
        doc = small_run_doc()
        doc["problem"]["theta0"] = [1e200, 1e200]
        assert cli.main(["check", str(write_doc(tmp_path, doc))]) == 1
        captured = capsys.readouterr()
        assert "overflow" in captured.err
        assert "verdict" not in captured.out

    def test_gradient_overflow_exit_code(self, capsys, tmp_path):
        doc = json.loads(bundled_config_text("quartic"))
        doc["problem"]["theta0"] = [1e200, 1e200]  # finite, but t1**3 overflows
        assert cli.main(["check", str(write_doc(tmp_path, doc))]) == 1
        captured = capsys.readouterr()
        assert "gradient" in captured.err
        assert "verdict" not in captured.out

    def test_overflowing_stationarity_check_is_one_line(self, capsys, tmp_path):
        doc = json.loads(bundled_config_text("quartic"))
        doc["problem"]["theta_star"] = [1e200, 1e200]  # finite, but t1**3 overflows
        path = write_doc(tmp_path, doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["check", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {path}: problem: theta_star is not a stationary point (gradient norm inf)\n"
        )
        assert captured.out == ""

    def test_subnormal_c_is_one_line(self, capsys, tmp_path, monkeypatch):
        doc = small_run_doc()
        doc["gains"]["bernoulli"]["c"] = 1e-320  # c0**2 underflows to 0
        out = tmp_path / "out.csv"
        # run refuses the gains before any replicate runs: with noise its first
        # step would diverge, without it the CSV header would fail after the last
        monkeypatch.setattr(cli, "run_experiment", lambda spec: pytest.fail("replicates ran"))
        for command, sigma2 in (("check", 1.0), ("run", 1.0), ("run", 0.0)):
            doc["problem"]["sigma2"] = sigma2
            argv = [command, str(write_doc(tmp_path, doc))]
            if command == "run":
                argv += ["--out", str(out)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert cli.main(argv) == 1, (command, sigma2)
            captured = capsys.readouterr()
            assert captured.err == (
                "error: c0_bernoulli = 1e-320 is too small to square in float64\n"
            )
            assert captured.out == ""
            assert not out.exists()

    def test_huge_c_gives_a_verdict(self, capsys, tmp_path):
        doc = small_run_doc()
        doc["gains"]["bernoulli"]["c"] = 1e200  # c0**2 overflows; the noise term tends to 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["check", str(write_doc(tmp_path, doc))]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert "lhs_explicit = 0.004246052176139908" in lines
        assert "verdict = bernoulli_favored_or_inconclusive" in lines
        assert "flatness_ok = false" in lines
        assert captured.err == ""

    def test_config_error_is_one_line_naming_the_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"problem": 1}', encoding="utf-8")
        assert cli.main(["check", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: problem must be an object\n"
        # so is a byte that is not UTF-8, decoded where the file name is known
        path.write_bytes(b"\xff" + bundled_config_text("quadratic").encode())
        assert cli.main(["check", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte\n"
        )

    def test_missing_file_is_runtime_failure(self, capsys, tmp_path):
        assert cli.main(["check", str(tmp_path / "absent.json")]) == 2
        assert "runtime failure" in capsys.readouterr().err

    def test_parse_error_exit_code(self, capsys, tmp_path):
        doc = small_run_doc()
        doc["surprise"] = 1
        assert cli.main(["check", str(write_doc(tmp_path, doc))]) == 1
        assert "surprise" in capsys.readouterr().err
        # non-finite numbers are config errors, never a verdict or a divergence
        doc = small_run_doc()
        doc["problem"]["theta0"] = [float("nan"), 0.3]
        assert cli.main(["check", str(write_doc(tmp_path, doc))]) == 1
        captured = capsys.readouterr()
        assert "problem.theta0[0]" in captured.err
        assert "verdict" not in captured.out
        doc = small_run_doc()
        doc["problem"]["sigma2"] = float("inf")
        out_path = tmp_path / "inf.csv"
        assert cli.main(["run", str(write_doc(tmp_path, doc)), "--out", str(out_path)]) == 1
        assert "problem.sigma2" in capsys.readouterr().err
        assert not out_path.exists()


class TestRun:
    def test_writes_expected_rows(self, capsys, tmp_path):
        path = write_doc(tmp_path, small_run_doc(k_values=(1,)))
        out_path = tmp_path / "out.csv"
        assert cli.main(["run", str(path), "--out", str(out_path)]) == 0
        data = [
            line
            for line in out_path.read_text().strip().split("\n")
            if line and not line.startswith("#")
        ]
        assert len(data) - 1 == 3  # two MSE rows and one comparison row

    def test_three_k_values_give_nine_rows(self, tmp_path):
        path = write_doc(tmp_path, small_run_doc(k_values=(1, 2, 5), n_reps=300))
        out_path = tmp_path / "out.csv"
        assert cli.main(["run", str(path), "--out", str(out_path)]) == 0
        data = [
            line
            for line in out_path.read_text().strip().split("\n")
            if line and not line.startswith("#")
        ]
        assert len(data) - 1 == 9

    def test_byte_identical_reruns(self, tmp_path):
        path = write_doc(tmp_path, small_run_doc(n_reps=400))
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        assert cli.main(["run", str(path), "--out", str(first)]) == 0
        assert cli.main(["run", str(path), "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_no_out_is_usage_error(self, capsys, tmp_path):
        path = write_doc(tmp_path, small_run_doc(n_reps=100))
        assert cli.main(["run", str(path)]) == 1
        assert capsys.readouterr().err == "error: the following arguments are required: --out\n"

    def test_out_key_in_config_is_unknown(self, capsys, tmp_path, monkeypatch):
        # --out is the one source of the output path; a config's "out" is a typo like any other
        def never(spec):
            raise AssertionError("run_experiment was called")

        monkeypatch.setattr(cli, "run_experiment", never)
        monkeypatch.chdir(tmp_path)
        doc = small_run_doc(n_reps=100)
        doc["out"] = "from_config.csv"
        path = write_doc(tmp_path, doc)
        assert cli.main(["run", str(path), "--out", "x.csv"]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: unknown key(s) 'out' at top level (allowed: problem, gains, "
            "k_values, n_reps, master_seed, third_derivative_bound)\n"
        )
        assert sorted(tmp_path.iterdir()) == [path]

    def test_underflowing_c_k_fails_before_any_replicate(self, capsys, tmp_path):
        # the quartic, which has no closed-form header lines to refuse c first
        doc = json.loads(bundled_config_text("quartic"))
        doc["k_values"] = [1000]
        doc["n_reps"] = 10
        doc["problem"]["sigma2"] = 0.0
        doc["gains"]["bernoulli"]["c"] = 5e-324  # c_k is 0 from k = 956 on
        out_path = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["run", str(write_doc(tmp_path, doc)), "--out", str(out_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: bernoulli: c_k underflows to 0 at k=956 (c = 5e-324)\n"
        assert captured.out == ""
        assert not out_path.exists()

    def test_shift_rounding_to_zero_fails_before_any_replicate(self, capsys, tmp_path):
        doc = json.loads(bundled_config_text("quartic"))  # no closed-form header lines
        doc["k_values"] = [5]
        doc["n_reps"] = 1000
        # c_0 = 5e-324 is positive, but c_0 * SEGMENT_INNER rounds to 0
        doc["gains"]["segmented_uniform"]["c"] = 5e-324
        out_path = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["run", str(write_doc(tmp_path, doc)), "--out", str(out_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: segmented_uniform: c_k * delta rounds to 0 at k=0 (c = 5e-324)\n"
        )
        assert captured.out == ""
        assert not out_path.exists()

    def test_divergence_exit_code(self, capsys, tmp_path):
        doc = json.loads(bundled_config_text("quartic"))
        doc["k_values"] = [25]
        doc["n_reps"] = 64
        doc["gains"]["bernoulli"]["a"] = 1e305
        path = write_doc(tmp_path, doc)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "x.csv")]) == 2
        assert "diverged" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "theta0, step_gain, message",
        (
            ([7e153, 7e153], 0.0, "bernoulli at k=1: the squared errors overflow float64"),
            ([1e154, 1e154], None, "condition value overflowed to nan"),
        ),
        ids=("mean_overflows", "squared_error_overflows"),
    )
    def test_overflowing_mse_is_input_error(
        self, capsys, tmp_path, theta0, step_gain, message
    ):
        # at 7e153 with a frozen iterate each squared error is finite and their
        # sum is not; at 1e154 the squared error of every row is inf already,
        # and the CSV header's closed form overflows before any replicate runs
        doc = small_run_doc(n_reps=100)
        doc["problem"]["theta0"] = theta0
        if step_gain is not None:
            for gains in doc["gains"].values():
                gains["a"] = step_gain
        out_path = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["run", str(write_doc(tmp_path, doc)), "--out", str(out_path)]) == 1
        assert message in capsys.readouterr().err
        assert not out_path.exists()


class TestReproduce:
    def test_table2_smoke(self, capsys, tmp_path):
        out_path = tmp_path / "t2.csv"
        code = cli.main(
            ["reproduce", "table2", "--reps", "4000", "--out", str(out_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0.1913" in out and "0.1798" in out  # reference values displayed
        assert "order_ok" in out
        assert out_path.exists()
        text = out_path.read_text()
        assert "k,distribution,mse,std_error,n_reps,mean_diff,t_stat,p_value" in text

    def test_table3_smoke(self, capsys, tmp_path):
        out_path = tmp_path / "t3.csv"
        code = cli.main(
            ["reproduce", "table3", "--reps", "3000", "--out", str(out_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1.7891" in out and "1.5255" in out
        assert "0.6500" in out and "0.9122" in out

    def test_seed_override(self, capsys, tmp_path):
        out_path = tmp_path / "t3.csv"
        code = cli.main(
            ["reproduce", "table3", "--reps", "3000", "--seed", "7", "--out", str(out_path)]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("table3: loss quartic_4_2, seed 7\n")
        assert "# master_seed = 7\n" in out_path.read_text()

    def test_refused_allocation_is_runtime_failure(self, capsys, tmp_path):
        out_path = tmp_path / "t3.csv"
        code = cli.main(
            ["reproduce", "table3", "--reps", str(10**18), "--out", str(out_path)]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("runtime failure: Unable to allocate")
        assert not out_path.exists()

    def test_bad_table_name(self, capsys):
        assert cli.main(["reproduce", "table9"]) == 1
        err = capsys.readouterr().err
        assert "invalid choice: 'table9'" in err
        assert "table2" in err and "table3" in err

    def test_reference_tables_written_out(self):
        # the paper's Tables 2 and 3 (arXiv 1405.0769) as configs/tables.json states
        # them, rows and groups in order: an edit to the data file fails here
        tables = reference_tables()
        assert tables == {
            "table2": {
                "config": "quadratic",
                "tolerance": 0.005,
                "groups": [[[1, 5, 10], 1_000_000], [[1000], 10_000]],
                "mse": [
                    [1, 0.1913, 0.1798],
                    [5, 0.2094, 0.1796],
                    [10, 0.1890, 0.1786],
                    [1000, 0.0421, 0.1403],
                ],
            },
            "table3": {
                "config": "quartic",
                "tolerance": 0.05,
                "groups": [[[1, 2, 5, 1000], 100_000]],
                "mse": [
                    [1, 1.7891, 1.5255],
                    [2, 1.2811, 1.2592],
                    [5, 0.6500, 0.9122],
                    [1000, 0.0024, 0.0049],
                ],
            },
        }
        assert list(tables) == ["table2", "table3"]
        for table in tables.values():
            assert table["config"] in BUNDLED_CONFIGS
            for k, _, _ in table["mse"]:
                assert sum(k in k_values for k_values, _ in table["groups"]) == 1


skip_as_root = pytest.mark.skipif(
    not hasattr(os, "geteuid") or os.geteuid() == 0,
    reason="needs a user whom file permissions bind",
)


@pytest.mark.parametrize("command", ("run", "reproduce"))
@pytest.mark.parametrize(
    "out, code, error",
    (
        pytest.param(
            "missing/x.csv", 2, "runtime failure: [Errno 2] No such file or directory: '{}'",
            id="missing_directory",
        ),
        pytest.param("dir", 2, "runtime failure: [Errno 21] Is a directory: '{}'", id="directory"),
        # <table>.csv does not stand in for an empty --out
        pytest.param("", 1, "error: --out must be a non-empty path", id="empty"),
        # None: the refusal the OS itself gives this user, which the CLI must repeat
        pytest.param(
            "/proc/spsa-dist.csv", 2, None, id="proc",
            marks=pytest.mark.skipif(sys.platform != "linux", reason="procfs is Linux's"),
        ),
        pytest.param(
            "read_only/x.csv", 2, "runtime failure: [Errno 13] Permission denied: '{}'",
            id="read_only_directory", marks=skip_as_root,
        ),
        pytest.param(
            "kept_read_only.csv", 2, "runtime failure: [Errno 13] Permission denied: '{}'",
            id="read_only_file", marks=skip_as_root,
        ),
        # the check appends nothing to a file the OS lets it open; the patched run then fails
        pytest.param("kept.csv", 2, "runtime failure: a replicate ran", id="existing_file"),
        # the file the check creates through a dangling symlink goes again; the link stays
        pytest.param("link.csv", 2, "runtime failure: a replicate ran", id="dangling_symlink"),
    ),
)
def test_unwritable_output_fails_before_any_replicate(
    command, out, code, error, capsys, tmp_path, monkeypatch
):
    def never(spec):
        raise MemoryError("a replicate ran")

    monkeypatch.setattr(cli, "run_experiment", never)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dir").mkdir()
    (tmp_path / "read_only").mkdir(mode=0o555)
    for name in ("kept.csv", "kept_read_only.csv"):
        (tmp_path / name).write_bytes(b"k,distribution\r\nearlier results\n")
    (tmp_path / "kept_read_only.csv").chmod(0o444)
    (tmp_path / "link.csv").symlink_to("linked.csv")
    args = {
        "run": ["run", str(write_doc(tmp_path, small_run_doc()))],
        "reproduce": ["reproduce", "table3"],
    }[command]

    def tree():
        return {p: p.is_file() and p.read_bytes() for p in sorted(tmp_path.rglob("*"))}

    before = tree()
    out_path = str(tmp_path / out) if out else ""
    if error is None:
        with pytest.raises(OSError) as refusal:
            open(out_path, "ab")
        error = f"runtime failure: {refusal.value}"
    assert cli.main(args + ["--out", out_path]) == code
    assert capsys.readouterr().err == error.format(out_path) + "\n"
    assert tree() == before


class TestUsage:
    def test_no_arguments(self, capsys):
        assert cli.main([]) == 1
        assert capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert cli.main(["paint"]) == 1
        assert capsys.readouterr().err
