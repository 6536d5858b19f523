import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from spsa_dist.config import bundled_config_text, parse_config
from spsa_dist.experiments import run_experiment


@pytest.fixture(scope="session")
def fresh_python():
    """Run code in a new interpreter that imports the package from ``src/``
    and return its standard output; pytest has loaded modules, and moved
    allocator state, in this one."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))

    def run(code: str) -> str:
        return subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
        ).stdout

    return run


@pytest.fixture(scope="session")
def quadratic_config():
    return parse_config(bundled_config_text("quadratic"), source="quadratic")


@pytest.fixture(scope="session")
def quartic_config():
    return parse_config(bundled_config_text("quartic"), source="quartic")


@pytest.fixture(scope="session")
def quadratic_spec(quadratic_config):
    return quadratic_config.experiment


@pytest.fixture(scope="session")
def quartic_spec(quartic_config):
    return quartic_config.experiment


# Heavy shared runs, instantiated lazily so unit-test sessions stay fast.


@pytest.fixture(scope="session")
def table2_small_k_result(quadratic_spec):
    return run_experiment(replace(quadratic_spec, k_values=(1, 5, 10)))


@pytest.fixture(scope="session")
def table2_k1000_result(quadratic_spec):
    return run_experiment(replace(quadratic_spec, k_values=(1000,), n_reps=10_000))


@pytest.fixture(scope="session")
def table3_result(quartic_spec):
    return run_experiment(quartic_spec)
