import json

import numpy as np
import pytest

from spsa_dist import cli, core
from spsa_dist.config import bundled_config_text
from spsa_dist.core import LossFunction, register_loss
from spsa_dist.theory import condition_input_from_problem, corollary3_lhs


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

    def test_unknown_name_rejected(self, capsys):
        assert cli.main(["moments", "uniform"]) == 1
        err = capsys.readouterr().err
        assert "not a valid SPSA perturbation distribution" in err

    def test_deterministic_given_seed(self, capsys):
        cli.main(["moments", "bernoulli", "--draws", "10000", "--seed", "5"])
        first = capsys.readouterr().out
        cli.main(["moments", "bernoulli", "--draws", "10000", "--seed", "5"])
        assert capsys.readouterr().out == first


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
            {"loss": "sphere_3d", "dimension": 3, "theta_star": [0, 0, 0], "theta0": [1, 1, 1]}
        )
        # a quadratic loss at p = 3 is Corollary 2, not Corollary 3
        assert cli.main(["check", str(write_doc(tmp_path, doc))]) == 0
        out = capsys.readouterr().out
        assert "condition = corollary2" in out
        assert "note = " not in out

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

    def test_out_from_config(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        doc = small_run_doc(n_reps=100)
        doc["out"] = "from_config.csv"
        path = write_doc(tmp_path, doc)
        assert cli.main(["run", str(path)]) == 0
        assert (tmp_path / "from_config.csv").exists()

    def test_no_out_is_usage_error(self, capsys, tmp_path):
        path = write_doc(tmp_path, small_run_doc(n_reps=100))
        assert cli.main(["run", str(path)]) == 1
        assert "--out" in capsys.readouterr().err

    def test_divergence_exit_code(self, capsys, tmp_path):
        doc = json.loads(bundled_config_text("quartic"))
        doc["k_values"] = [25]
        doc["n_reps"] = 64
        doc["gains"]["bernoulli"]["a"] = 1e305
        path = write_doc(tmp_path, doc)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "x.csv")]) == 2
        assert "diverged" in capsys.readouterr().err


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

    def test_bad_table_name(self, capsys):
        assert cli.main(["reproduce", "table9"]) == 1
        assert capsys.readouterr().err


class TestUsage:
    def test_no_arguments(self, capsys):
        assert cli.main([]) == 1
        assert capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert cli.main(["paint"]) == 1
        assert capsys.readouterr().err
