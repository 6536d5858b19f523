"""Strict JSON experiment configuration: parsing, validation, serialization.

The format mirrors :class:`spsa_dist.experiments.ExperimentSpec`, with gain
schedules keyed by the distribution names "bernoulli" and
"segmented_uniform". Unknown keys are rejected everywhere: a silently ignored
typo in a gain name would invalidate an experiment. Parsing a serialized
config always yields an identical spec. The data files shipped in
``configs/``, the bundled configs and the paper's reference tables, are read
here too.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from importlib import resources

from .core import GainSchedule, ProblemConfig, get_loss
from .experiments import ExperimentSpec

__all__ = [
    "ConfigError",
    "CliConfig",
    "parse_config",
    "load_config",
    "dumps_config",
    "bundled_config_text",
    "reference_tables",
    "BUNDLED_CONFIGS",
]

#: Names of the configs shipped with the package (see ``configs/``).
BUNDLED_CONFIGS = ("quadratic", "quartic")


class ConfigError(ValueError):
    """A configuration file failed to parse or validate."""


@dataclass(frozen=True)
class CliConfig:
    experiment: ExperimentSpec
    third_derivative_bound: float | None = None


def _object(value, path: str, allowed: tuple[str, ...]) -> dict:
    """``value`` as a JSON object whose keys all appear in ``allowed``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path} must be an object")
    unknown = sorted(set(value) - set(allowed))
    if unknown:
        raise ConfigError(
            f"unknown key(s) {', '.join(repr(k) for k in unknown)} at {path} "
            f"(allowed: {', '.join(allowed)})"
        )
    return value


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; json itself keeps only a repeated key's last value."""
    repeated = sorted(key for key, n in Counter(key for key, _ in pairs).items() if n > 1)
    if repeated:
        raise ConfigError(f"duplicate key(s) {', '.join(repr(k) for k in repeated)}")
    return dict(pairs)


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError(f"missing required key '{key}' at {path}")
    return mapping[key]


def _as_number(value, path: str) -> float:
    # bool is an int subclass; it is not a number here
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    # json also accepts NaN, Infinity and float literals that overflow, like 1e999
    if not math.isfinite(number):
        raise ConfigError(f"{path} must be finite, got {number}")
    return number


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer")
    return value


def _as_vector(value, path: str, length: int) -> tuple[float, ...]:
    if not isinstance(value, list) or len(value) != length:
        raise ConfigError(f"{path} must be an array of {length} numbers")
    return tuple(_as_number(v, f"{path}[{i}]") for i, v in enumerate(value))


def _parse_schedule(value, path: str) -> GainSchedule:
    mapping = _object(value, path, ("a", "c"))
    a = _as_number(_require(mapping, "a", path), f"{path}.a")
    c = _as_number(_require(mapping, "c", path), f"{path}.c")
    try:
        return GainSchedule(a=a, c=c)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


_TOP_LEVEL_KEYS = (
    "problem",
    "gains",
    "k_values",
    "n_reps",
    "master_seed",
    "third_derivative_bound",
)
_PROBLEM_KEYS = ("loss", "theta_star", "theta0", "sigma2")


def parse_config(text: str | bytes, source: str = "<config>") -> CliConfig:
    """Parse and validate a JSON config document (bytes: UTF-8, -16 or -32).

    Every error is a one-line ConfigError, ``<source>: <path> ...``: each
    check names the path in the document, and ``source`` is added once, here.
    """
    try:
        document = json.loads(text, object_pairs_hook=_unique_keys)
        top = _object(document, "top level", _TOP_LEVEL_KEYS)
        problem_map = _object(_require(top, "problem", "top level"), "problem", _PROBLEM_KEYS)
        loss_name = _require(problem_map, "loss", "problem")
        if not isinstance(loss_name, str):
            raise ConfigError("problem.loss must be a string")
        try:
            loss = get_loss(loss_name)
        except ValueError as exc:
            raise ConfigError(f"problem.loss: {exc}") from None
        theta0 = _require(problem_map, "theta0", "problem")
        if not isinstance(theta0, list) or not theta0:
            raise ConfigError("problem.theta0 must be a non-empty array of numbers")
        theta0 = tuple(_as_number(v, f"problem.theta0[{i}]") for i, v in enumerate(theta0))
        theta_star = _as_vector(
            _require(problem_map, "theta_star", "problem"), "problem.theta_star", len(theta0)
        )
        sigma2 = _as_number(_require(problem_map, "sigma2", "problem"), "problem.sigma2")
        try:
            problem = ProblemConfig(
                p=len(theta0), loss=loss, theta_star=theta_star, sigma2=sigma2, theta0=theta0
            )
        except ValueError as exc:
            raise ConfigError(f"problem: {exc}") from None

        gains = _object(
            _require(top, "gains", "top level"), "gains", ("bernoulli", "segmented_uniform")
        )
        schedule_bern = _parse_schedule(_require(gains, "bernoulli", "gains"), "gains.bernoulli")
        schedule_su = _parse_schedule(
            _require(gains, "segmented_uniform", "gains"), "gains.segmented_uniform"
        )

        k_values = _require(top, "k_values", "top level")
        if not isinstance(k_values, list) or not k_values:
            raise ConfigError("k_values must be a non-empty array of integers")
        # checked in order: each k_values entry, n_reps, master_seed, then the spec
        experiment = ExperimentSpec(
            problem=problem,
            schedule_su=schedule_su,
            schedule_bern=schedule_bern,
            k_values=tuple(_as_int(k, f"k_values[{i}]") for i, k in enumerate(k_values)),
            n_reps=_as_int(_require(top, "n_reps", "top level"), "n_reps"),
            master_seed=_as_int(_require(top, "master_seed", "top level"), "master_seed"),
        )

        third_derivative_bound = top.get("third_derivative_bound")
        if third_derivative_bound is not None:
            third_derivative_bound = _as_number(third_derivative_bound, "third_derivative_bound")
            if third_derivative_bound < 0.0:
                raise ConfigError("third_derivative_bound must be nonnegative")
    except ValueError as exc:  # ConfigError, json.JSONDecodeError, UnicodeDecodeError
        if isinstance(exc, json.JSONDecodeError):
            exc = f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
        raise ConfigError(f"{source}: {exc}") from None

    return CliConfig(experiment=experiment, third_derivative_bound=third_derivative_bound)


def load_config(path) -> CliConfig:
    with open(path, "rb") as handle:  # decoded by json.loads, so a bad byte names the file
        text = handle.read()
    return parse_config(text, source=str(path))


def dumps_config(config: CliConfig) -> str:
    """Serialize a config; parsing the output reproduces an identical spec."""
    spec = config.experiment
    problem = spec.problem
    document = {
        "problem": {
            "loss": problem.loss.name,
            "theta_star": list(problem.theta_star),
            "theta0": list(problem.theta0),
            "sigma2": problem.sigma2,
        },
        "gains": {
            "bernoulli": {"a": spec.schedule_bern.a, "c": spec.schedule_bern.c},
            "segmented_uniform": {"a": spec.schedule_su.a, "c": spec.schedule_su.c},
        },
        "k_values": list(spec.k_values),
        "n_reps": spec.n_reps,
        "master_seed": spec.master_seed,
    }
    if config.third_derivative_bound is not None:
        document["third_derivative_bound"] = config.third_derivative_bound
    return json.dumps(document, indent=2) + "\n"


def _bundled_text(file_name: str) -> str:
    return (resources.files("spsa_dist") / "configs" / file_name).read_text(encoding="utf-8")


def bundled_config_text(name: str) -> str:
    """Text of a config shipped with the package ("quadratic" or "quartic")."""
    if name not in BUNDLED_CONFIGS:
        raise ValueError(f'no bundled config "{name}" (available: {", ".join(BUNDLED_CONFIGS)})')
    return _bundled_text(f"{name}.json")


def reference_tables() -> dict:
    """The paper's MSE tables that ``reproduce`` compares with (``configs/tables.json``).

    Trusted package data, read at each call: each table names its bundled config, its
    flag tolerance, its ``[k_values, n_reps]`` replicate groups and its
    ``[k, mse_bernoulli, mse_segmented_uniform]`` rows.
    """
    return json.loads(_bundled_text("tables.json"))
