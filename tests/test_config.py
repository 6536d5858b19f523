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
from spsa_dist.core import GainSchedule, ProblemConfig, get_loss, registered_losses
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
    cfg = parse_doc(doc)
    assert parse_config(dumps_config(cfg), source="test") == cfg
    assert cfg.third_derivative_bound == 1.5


def test_bundled_quadratic_contents():
    cfg = parse_config(bundled_config_text("quadratic"), source="quadratic")
    spec = cfg.experiment
    assert spec.problem.loss.name == "quadratic_4_1"
    assert spec.problem.theta0 == (0.3, 0.3)
    assert spec.problem.sigma2 == 1.0
    assert spec.schedule_su.a == 0.00167
    assert spec.schedule_bern.a == 0.01897
    assert spec.k_values == (1, 5, 10, 1000)


# what the bundled configs parsed to when they also stated p as "dimension": 2
BUNDLED_SPECS = {
    "quadratic": ExperimentSpec(
        problem=ProblemConfig(
            p=2,
            loss=get_loss("quadratic_4_1"),
            theta_star=(0.0, 0.0),
            sigma2=1.0,
            theta0=(0.3, 0.3),
        ),
        schedule_su=GainSchedule(a=0.00167, c=0.1),
        schedule_bern=GainSchedule(a=0.01897, c=0.1),
        k_values=(1, 5, 10, 1000),
        n_reps=1_000_000,
        master_seed=20260811,
    ),
    "quartic": ExperimentSpec(
        problem=ProblemConfig(
            p=2,
            loss=get_loss("quartic_4_2"),
            theta_star=(0.0, 0.0),
            sigma2=1.0,
            theta0=(1.0, 1.0),
        ),
        schedule_su=GainSchedule(a=0.05, c=1.0),
        schedule_bern=GainSchedule(a=0.15, c=1.0),
        k_values=(1, 2, 5, 1000),
        n_reps=100_000,
        master_seed=20260812,
    ),
}


@pytest.mark.parametrize("name", BUNDLED_CONFIGS)
def test_bundled_configs_take_p_from_theta0(name):
    text = bundled_config_text(name)
    assert "dimension" not in json.loads(text)["problem"]
    assert parse_config(text, source=name) == CliConfig(experiment=BUNDLED_SPECS[name])


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
    doc["problem"]["theta_star"] = [0.3]
    with pytest.raises(ConfigError, match="theta_star must be an array of 2 numbers"):
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


def test_syntax_error_has_line_diagnostic():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config('{\n"problem": }', source="broken.json")


def test_load_config_reads_files(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(bundled_config_text("quartic"), encoding="utf-8")
    cfg = load_config(path)
    assert cfg.experiment.problem.loss.name == "quartic_4_2"
    assert str(path) not in dumps_config(cfg)  # source path is not part of the experiment spec
    # json decodes the bytes, so a UTF-8 byte-order mark or UTF-16 reads as the same config
    for encoding in ("utf-8-sig", "utf-16"):
        path.write_text(bundled_config_text("quartic"), encoding=encoding)
        assert load_config(path) == cfg


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
    ((), ("problem", "gains", "k_values", "n_reps", "master_seed", "third_derivative_bound")),
    (("problem",), ("loss", "theta_star", "theta0", "sigma2")),
    (("gains",), ("bernoulli", "segmented_uniform")),
    (("gains", "bernoulli"), ("a", "c")),
]


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


DELETE = object()


def edited_text(*edits):
    """The bundled quadratic config as JSON text, with each (key path, value)
    edit applied; a value of DELETE removes the key."""
    doc = quadratic_doc()
    for path, value in edits:
        parent = _node(doc, path[:-1])
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return json.dumps(doc)


# One case per raise site in config.py: a config text and the whole message
# that follows "test: ". "{registered}" stands for the losses registered when
# the case runs, since other tests register losses of their own.
WHOLE_MESSAGES = [
    pytest.param('{\n"problem": }', "line 2, column 12: Expecting value", id="json_syntax"),
    pytest.param("[]", "top level must be an object", id="document_not_object"),
    pytest.param('{"problem": 1}', "problem must be an object", id="section_not_object"),
    pytest.param(
        edited_text((("extra",), 1)),
        "unknown key(s) 'extra' at top level (allowed: problem, gains, k_values, n_reps, "
        "master_seed, third_derivative_bound)",
        id="unknown_key",
    ),
    pytest.param(
        bundled_config_text("quadratic").replace('"n_reps"', '"n_reps": 5, "n_reps"'),
        "duplicate key(s) 'n_reps'",
        id="duplicate_key",
    ),
    pytest.param(
        b"\xff" + bundled_config_text("quadratic").encode(),
        "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
        id="not_utf8",
    ),
    pytest.param(
        edited_text((("gains",), DELETE)), "missing required key 'gains' at top level",
        id="missing_key",
    ),
    pytest.param(
        edited_text((("problem", "loss"), 7)), "problem.loss must be a string",
        id="loss_not_string",
    ),
    pytest.param(
        edited_text((("problem", "loss"), "mystery")),
        'problem.loss: unknown loss "mystery" (registered: {registered})',
        id="unknown_loss",
    ),
    pytest.param(
        edited_text((("n_reps",), 2.5)), "n_reps must be an integer", id="not_integer"
    ),
    pytest.param(
        edited_text((("problem", "dimension"), 2)),
        "unknown key(s) 'dimension' at problem (allowed: loss, theta_star, theta0, sigma2)",
        id="dimension_key",
    ),
    pytest.param(
        edited_text((("problem", "theta0"), [])),
        "problem.theta0 must be a non-empty array of numbers",
        id="theta0_empty",
    ),
    pytest.param(
        edited_text((("problem", "theta_star"), [0.0])),
        "problem.theta_star must be an array of 2 numbers",
        id="vector_length",
    ),
    pytest.param(
        edited_text((("problem", "sigma2"), "one")), "problem.sigma2 must be a number",
        id="not_number",
    ),
    pytest.param(
        edited_text((("problem", "theta_star", 1), float("-inf"))),
        "problem.theta_star[1] must be finite, got -inf",
        id="not_finite",
    ),
    pytest.param(
        edited_text(
            (("problem", "theta_star"), [0, 0, 0]),
            (("problem", "theta0"), [1, 1, 1]),
        ),
        'problem: loss "quadratic_4_1" has dimension 2, not 3',
        id="problem_invalid",
    ),
    pytest.param(
        edited_text((("gains", "segmented_uniform", "c"), 0.0)),
        "gains.segmented_uniform: gain constant c must be finite and positive",
        id="schedule_invalid",
    ),
    pytest.param(
        edited_text((("k_values",), [])), "k_values must be a non-empty array of integers",
        id="k_values_empty",
    ),
    pytest.param(
        edited_text((("k_values",), [5, 1])), "k_values must be strictly increasing",
        id="experiment_invalid",
    ),
    pytest.param(
        edited_text((("third_derivative_bound",), -0.5)),
        "third_derivative_bound must be nonnegative",
        id="negative_bound",
    ),
]


@pytest.mark.parametrize("text, message", WHOLE_MESSAGES)
def test_whole_message_names_the_source_once(text, message):
    with pytest.raises(ConfigError) as info:
        parse_config(text, source="test")
    registered = ", ".join(registered_losses())
    assert str(info.value) == "test: " + message.format(registered=registered)


def test_unknown_bundled_config_rejected():
    with pytest.raises(ValueError) as info:
        bundled_config_text("nope")
    assert str(info.value) == 'no bundled config "nope" (available: quadratic, quartic)'


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
