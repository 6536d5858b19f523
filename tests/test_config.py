import json
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spsa_dist.config import (
    BUNDLED_CONFIGS,
    CliConfig,
    ConfigError,
    bundled_config_text,
    dumps_config,
    load_config,
    parse_config,
)
from spsa_dist.core import GainSchedule, ProblemConfig, get_loss
from spsa_dist.experiments import ExperimentSpec


def quadratic_doc():
    return json.loads(bundled_config_text("quadratic"))


def parse_doc(doc):
    return parse_config(json.dumps(doc), source="test")


@pytest.mark.parametrize("name", BUNDLED_CONFIGS)
def test_bundled_configs_round_trip(name):
    cfg = parse_config(bundled_config_text(name), source=name)
    assert parse_config(dumps_config(cfg), source=name) == cfg


def test_round_trip_preserves_optional_fields():
    doc = quadratic_doc()
    doc["third_derivative_bound"] = 1.5
    doc["out"] = "results.csv"
    cfg = parse_doc(doc)
    assert parse_config(dumps_config(cfg), source="test") == cfg
    assert cfg.third_derivative_bound == 1.5
    assert cfg.out == "results.csv"


def test_bundled_quadratic_contents():
    cfg = parse_config(bundled_config_text("quadratic"), source="quadratic")
    spec = cfg.experiment
    assert spec.problem.loss.name == "quadratic_4_1"
    assert spec.problem.theta0 == (0.3, 0.3)
    assert spec.problem.sigma2 == 1.0
    assert spec.schedule_su.a == 0.00167
    assert spec.schedule_bern.a == 0.01897
    assert spec.k_values == (1, 5, 10, 1000)


def test_unknown_keys_rejected():
    doc = quadratic_doc()
    doc["extra"] = 1
    with pytest.raises(ConfigError, match="'extra'"):
        parse_doc(doc)
    doc = quadratic_doc()
    doc["problem"]["typo"] = 1
    with pytest.raises(ConfigError, match="'typo'"):
        parse_doc(doc)
    doc = quadratic_doc()
    doc["gains"]["bernouli"] = doc["gains"]["bernoulli"]
    with pytest.raises(ConfigError, match="'bernouli'"):
        parse_doc(doc)
    doc = quadratic_doc()
    doc["gains"]["bernoulli"]["b"] = 2.0
    with pytest.raises(ConfigError, match="'b'"):
        parse_doc(doc)
    # the condition form follows from the loss, p and third_derivative_bound
    doc = quadratic_doc()
    doc["condition_form"] = "corollary3"
    with pytest.raises(ConfigError, match="unknown key.*'condition_form'"):
        parse_doc(doc)
    # noise is always Gaussian; there is no noise-law key
    doc = quadratic_doc()
    doc["problem"]["noise"] = "gaussian"
    with pytest.raises(ConfigError, match="unknown key.*'noise'"):
        parse_doc(doc)


def test_missing_keys_rejected():
    doc = quadratic_doc()
    del doc["gains"]
    with pytest.raises(ConfigError, match="missing required key 'gains'"):
        parse_doc(doc)
    doc = quadratic_doc()
    del doc["problem"]["sigma2"]
    with pytest.raises(ConfigError, match="sigma2"):
        parse_doc(doc)


def test_type_errors():
    doc = quadratic_doc()
    doc["problem"]["sigma2"] = "one"
    with pytest.raises(ConfigError, match="sigma2 must be a number"):
        parse_doc(doc)
    doc = quadratic_doc()
    doc["problem"]["sigma2"] = True
    with pytest.raises(ConfigError, match="sigma2 must be a number"):
        parse_doc(doc)
    doc = quadratic_doc()
    doc["n_reps"] = 2.5
    with pytest.raises(ConfigError, match="n_reps must be an integer"):
        parse_doc(doc)
    doc = quadratic_doc()
    doc["problem"]["theta0"] = [0.3]
    with pytest.raises(ConfigError, match="array of 2 numbers"):
        parse_doc(doc)
    # json.dumps writes NaN and Infinity literals, which json.loads accepts
    doc = quadratic_doc()
    doc["problem"]["theta0"] = [float("nan"), 0.3]
    with pytest.raises(ConfigError, match=r"problem\.theta0\[0\] must be finite"):
        parse_doc(doc)
    doc = quadratic_doc()
    doc["problem"]["sigma2"] = float("inf")
    with pytest.raises(ConfigError, match="problem.sigma2 must be finite"):
        parse_doc(doc)
    for literal in ("1e999", "-1e999", "1" + "0" * 400):
        doc = quadratic_doc()
        doc["gains"]["bernoulli"]["a"] = "OVERFLOW"
        text = json.dumps(doc).replace('"OVERFLOW"', literal)
        with pytest.raises(ConfigError, match="gains.bernoulli.a must be finite"):
            parse_config(text, source="test")


def test_semantic_errors():
    doc = quadratic_doc()
    doc["problem"]["loss"] = "mystery"
    with pytest.raises(ConfigError, match="unknown loss"):
        parse_doc(doc)
    doc = quadratic_doc()
    doc["problem"]["dimension"] = 3
    doc["problem"]["theta_star"] = [0, 0, 0]
    doc["problem"]["theta0"] = [1, 1, 1]
    with pytest.raises(ConfigError, match="dimension"):
        parse_doc(doc)
    doc = quadratic_doc()
    doc["k_values"] = [5, 1]
    with pytest.raises(ConfigError, match="increasing"):
        parse_doc(doc)
    doc = quadratic_doc()
    doc["k_values"] = []
    with pytest.raises(ConfigError, match="k_values"):
        parse_doc(doc)
    doc = quadratic_doc()
    doc["n_reps"] = 1
    with pytest.raises(ConfigError, match="n_reps"):
        parse_doc(doc)
    doc = quadratic_doc()
    doc["master_seed"] = -1
    with pytest.raises(ConfigError, match="master_seed"):
        parse_doc(doc)
    doc = quadratic_doc()
    doc["gains"]["bernoulli"]["c"] = 0.0
    with pytest.raises(ConfigError, match=r"gains\.bernoulli: .*positive"):
        parse_doc(doc)
    doc = quadratic_doc()
    doc["third_derivative_bound"] = -0.5
    with pytest.raises(ConfigError, match="third_derivative_bound"):
        parse_doc(doc)
    doc = quadratic_doc()
    doc["out"] = 7
    with pytest.raises(ConfigError, match="out"):
        parse_doc(doc)


def test_syntax_error_has_line_diagnostic():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config('{\n"problem": }', source="broken.json")


def test_load_config_reads_files(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(bundled_config_text("quartic"), encoding="utf-8")
    cfg = load_config(path)
    assert cfg.experiment.problem.loss.name == "quartic_4_2"
    assert str(path) not in dumps_config(cfg)  # source path is not part of the experiment spec


finite = st.floats(allow_nan=False, allow_infinity=False)
nonnegative = st.floats(min_value=0.0, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
gains = st.builds(GainSchedule, a=nonnegative, c=positive)

valid_configs = st.builds(
    CliConfig,
    experiment=st.builds(
        ExperimentSpec,
        problem=st.builds(
            ProblemConfig,
            p=st.just(2),
            loss=st.sampled_from(["quadratic_4_1", "quartic_4_2"]).map(get_loss),
            theta_star=st.just((0.0, 0.0)),
            sigma2=nonnegative,
            theta0=st.tuples(finite, finite),
        ),
        schedule_su=gains,
        schedule_bern=gains,
        k_values=st.sets(st.integers(1, 10**6), min_size=1, max_size=5).map(sorted),
        n_reps=st.integers(2, 10**9),
        master_seed=st.integers(0, 2**64 - 1),
    ),
    third_derivative_bound=st.none() | nonnegative,
    out=st.none() | st.text(),
)

# numeric leaves of a config document, as (path in the error, key path)
NUMERIC_PATHS = [
    ("problem.theta0[0]", ("problem", "theta0", 0)),
    ("problem.theta_star[1]", ("problem", "theta_star", 1)),
    ("problem.sigma2", ("problem", "sigma2")),
    ("gains.bernoulli.a", ("gains", "bernoulli", "a")),
    ("gains.segmented_uniform.c", ("gains", "segmented_uniform", "c")),
    ("third_derivative_bound", ("third_derivative_bound",)),
]

# objects of a config document, with the keys each allows
OBJECTS = [
    ((), ("problem", "gains", "k_values", "n_reps", "master_seed", "third_derivative_bound", "out")),
    (("problem",), ("loss", "dimension", "theta_star", "theta0", "sigma2")),
    (("gains",), ("bernoulli", "segmented_uniform")),
    (("gains", "bernoulli"), ("a", "c")),
]


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@settings(max_examples=60, deadline=None)
@given(valid_configs)
def test_round_trip_property(cfg):
    assert parse_config(dumps_config(cfg), source="test") == cfg


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(NUMERIC_PATHS),
    st.sampled_from(["NaN", "Infinity", "-Infinity", "1e999", "-1e999"]),
)
def test_non_finite_numbers_rejected(target, literal):
    label, path = target
    doc = quadratic_doc()
    _node(doc, path[:-1])[path[-1]] = "NON_FINITE"
    text = json.dumps(doc).replace('"NON_FINITE"', literal)
    with pytest.raises(ConfigError, match=f"{re.escape(label)} must be finite"):
        parse_config(text, source="test")


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(OBJECTS), st.text(min_size=1) | st.just("noise"), st.integers() | st.text())
def test_unknown_keys_rejected_property(target, key, value):
    path, allowed = target
    assume(key not in allowed)
    doc = quadratic_doc()
    _node(doc, path)[key] = value
    with pytest.raises(ConfigError, match="unknown key"):
        parse_doc(doc)
