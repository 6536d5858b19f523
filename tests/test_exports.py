import importlib

import pytest

SUBMODULES = ("perturbations", "core", "streams", "theory", "experiments", "config", "cli")


@pytest.mark.parametrize(
    "module_name", ("spsa_dist",) + tuple(f"spsa_dist.{m}" for m in SUBMODULES)
)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)

