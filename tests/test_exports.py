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


def test_package_import_leaves_out_scipy_stats(fresh_python):
    code = "import spsa_dist, spsa_dist.cli, sys; print('scipy.stats' in sys.modules)"
    assert fresh_python(code).strip() == "False"


def test_check_command_loads_no_scipy(fresh_python):
    # scipy is imported only where a replicate's noise or a t-test needs it
    code = (
        "import contextlib, io, pathlib, sys\n"
        "from spsa_dist import cli\n"
        "config = pathlib.Path(cli.__file__).parent / 'configs' / 'quartic.json'\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['check', str(config)])\n"
        "print(code, sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))"
    )
    assert fresh_python(code).strip() == "0 []"


def test_package_import_leaves_the_reference_tables_unread(fresh_python):
    code = (
        "import sys; opened = []\n"
        "sys.addaudithook(lambda event, args: event == 'open' and opened.append(str(args[0])))\n"
        "import spsa_dist, spsa_dist.cli\n"
        "print(any(path.endswith('tables.json') for path in opened))"
    )
    assert fresh_python(code).strip() == "False"
