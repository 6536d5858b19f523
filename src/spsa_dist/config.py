"""Strict JSON experiment configuration: parsing, validation, serialization.

The format mirrors :class:`spsa_dist.experiments.ExperimentSpec`, with gain
schedules keyed by the distribution names "bernoulli" and
"segmented_uniform". Unknown keys are rejected everywhere: a silently ignored
typo in a gain name would invalidate an experiment. Parsing a serialized
config always yields an identical spec.
"""

from __future__ import annotations

import json
import math
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
    out: str | None = None


def _reject_unknown(mapping: dict, allowed: tuple[str, ...], path: str, source: str) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(
            f"{source}: unknown key(s) {', '.join(repr(k) for k in unknown)} at {path} "
            f"(allowed: {', '.join(allowed)})"
        )


def _require(mapping: dict, key: str, path: str, source: str):
    if key not in mapping:
        raise ConfigError(f"{source}: missing required key '{key}' at {path}")
    return mapping[key]


def _as_mapping(value, path: str, source: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{source}: {path} must be an object")
    return value


def _as_number(value, path: str, source: str) -> float:
    # bool is an int subclass; it is not a number here
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{source}: {path} must be a number")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    # json also accepts NaN, Infinity and float literals that overflow, like 1e999
    if not math.isfinite(number):
        raise ConfigError(f"{source}: {path} must be finite, got {number}")
    return number


def _as_int(value, path: str, source: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{source}: {path} must be an integer")
    return value


def _as_vector(value, path: str, length: int, source: str) -> tuple[float, ...]:
    if not isinstance(value, list) or len(value) != length:
        raise ConfigError(f"{source}: {path} must be an array of {length} numbers")
    return tuple(_as_number(v, f"{path}[{i}]", source) for i, v in enumerate(value))


def _parse_schedule(value, path: str, source: str) -> GainSchedule:
    mapping = _as_mapping(value, path, source)
    _reject_unknown(mapping, ("a", "c"), path, source)
    a = _as_number(_require(mapping, "a", path, source), f"{path}.a", source)
    c = _as_number(_require(mapping, "c", path, source), f"{path}.c", source)
    try:
        return GainSchedule(a=a, c=c)
    except ValueError as exc:
        raise ConfigError(f"{source}: {path}: {exc}") from None


def parse_config(text: str, source: str = "<config>") -> CliConfig:
    """Parse and validate a JSON config document."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{source}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    mapping = _as_mapping(document, "top level", source)
    _reject_unknown(
        mapping,
        (
            "problem",
            "gains",
            "k_values",
            "n_reps",
            "master_seed",
            "third_derivative_bound",
            "out",
        ),
        "top level",
        source,
    )

    problem_map = _as_mapping(_require(mapping, "problem", "top level", source), "problem", source)
    _reject_unknown(
        problem_map,
        ("loss", "dimension", "theta_star", "theta0", "sigma2"),
        "problem",
        source,
    )
    loss_name = _require(problem_map, "loss", "problem", source)
    if not isinstance(loss_name, str):
        raise ConfigError(f"{source}: problem.loss must be a string")
    try:
        loss = get_loss(loss_name)
    except ValueError as exc:
        raise ConfigError(f"{source}: problem.loss: {exc}") from None
    dimension = _as_int(_require(problem_map, "dimension", "problem", source), "problem.dimension", source)
    if dimension < 1:
        raise ConfigError(f"{source}: problem.dimension must be at least 1")
    theta_star = _as_vector(
        _require(problem_map, "theta_star", "problem", source), "problem.theta_star", dimension, source
    )
    theta0 = _as_vector(
        _require(problem_map, "theta0", "problem", source), "problem.theta0", dimension, source
    )
    sigma2 = _as_number(_require(problem_map, "sigma2", "problem", source), "problem.sigma2", source)
    try:
        problem = ProblemConfig(
            p=dimension,
            loss=loss,
            theta_star=theta_star,
            sigma2=sigma2,
            theta0=theta0,
        )
    except ValueError as exc:
        raise ConfigError(f"{source}: problem: {exc}") from None

    gains_map = _as_mapping(_require(mapping, "gains", "top level", source), "gains", source)
    _reject_unknown(gains_map, ("bernoulli", "segmented_uniform"), "gains", source)
    schedule_bern = _parse_schedule(
        _require(gains_map, "bernoulli", "gains", source), "gains.bernoulli", source
    )
    schedule_su = _parse_schedule(
        _require(gains_map, "segmented_uniform", "gains", source), "gains.segmented_uniform", source
    )

    k_values_raw = _require(mapping, "k_values", "top level", source)
    if not isinstance(k_values_raw, list) or not k_values_raw:
        raise ConfigError(f"{source}: k_values must be a non-empty array of integers")
    k_values = tuple(
        _as_int(v, f"k_values[{i}]", source) for i, v in enumerate(k_values_raw)
    )
    n_reps = _as_int(_require(mapping, "n_reps", "top level", source), "n_reps", source)
    master_seed = _as_int(_require(mapping, "master_seed", "top level", source), "master_seed", source)

    try:
        experiment = ExperimentSpec(
            problem=problem,
            schedule_su=schedule_su,
            schedule_bern=schedule_bern,
            k_values=k_values,
            n_reps=n_reps,
            master_seed=master_seed,
        )
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from None

    third_derivative_bound = mapping.get("third_derivative_bound")
    if third_derivative_bound is not None:
        third_derivative_bound = _as_number(
            third_derivative_bound, "third_derivative_bound", source
        )
        if third_derivative_bound < 0.0:
            raise ConfigError(f"{source}: third_derivative_bound must be nonnegative")
    out = mapping.get("out")
    if out is not None and not (isinstance(out, str) and out):
        raise ConfigError(f"{source}: out must be a non-empty string path")

    return CliConfig(
        experiment=experiment,
        third_derivative_bound=third_derivative_bound,
        out=out,
    )


def load_config(path) -> CliConfig:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_config(text, source=str(path))


def dumps_config(config: CliConfig) -> str:
    """Serialize a config; parsing the output reproduces an identical spec."""
    spec = config.experiment
    problem = spec.problem
    document = {
        "problem": {
            "loss": problem.loss.name,
            "dimension": problem.p,
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
    if config.out is not None:
        document["out"] = config.out
    return json.dumps(document, indent=2) + "\n"


def bundled_config_text(name: str) -> str:
    """Text of a config shipped with the package ("quadratic" or "quartic")."""
    if name not in BUNDLED_CONFIGS:
        raise ValueError(f'no bundled config "{name}" (available: {", ".join(BUNDLED_CONFIGS)})')
    return (resources.files("spsa_dist") / "configs" / f"{name}.json").read_text(
        encoding="utf-8"
    )
