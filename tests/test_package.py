"""Package-level contracts: the public API and the README's command list."""

import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys

import oemarray

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = ("core", "transducer", "noise", "cascade", "loss", "optimize")


def test_public_names_are_the_modules_all_lists():
    # each public name is declared once, in its module's __all__; a fresh
    # interpreter, so that submodules other tests import (cli) do not count
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(oemarray.__file__)))
    probe = "import oemarray; print(*sorted(n for n in vars(oemarray) if n[0] != '_'))"
    public = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True).stdout.split()
    modules = [importlib.import_module(f"oemarray.{name}") for name in MODULES]
    for module in modules:
        assert "__all__" in vars(module), module.__name__
        for name in module.__all__:
            assert getattr(oemarray, name) is getattr(module, name)
    # no module's name shadows another's
    exported = [name for module in modules for name in module.__all__]
    assert len(set(exported)) == len(exported) == 64
    assert set(public) == set(exported) | set(MODULES)
    assert len(public) == 70


def test_readme_names_every_function_that_takes_omega():
    takes_omega = {name for name, value in vars(oemarray).items()
                   if name[0] != "_" and inspect.isfunction(value)
                   and "omega" in inspect.signature(value).parameters}
    text = open(os.path.join(ROOT, "README.md"), encoding="utf-8").read()
    sentence = text.split("public functions that take `omega`", 1)[1].split(")", 1)[0]
    assert set(re.findall(r"`(\w+)`", sentence)) == takes_omega


def test_src_imports_no_scipy():
    # the program runs on numpy alone; scipy is a test and tooling dependency
    for root, _, names in os.walk(os.path.dirname(oemarray.__file__)):
        for name in names:
            if name.endswith(".py"):
                text = open(os.path.join(root, name), encoding="utf-8").read()
                assert "import scipy" not in text and "from scipy" not in text, name


def _readme_commands() -> list:
    text = open(os.path.join(ROOT, "README.md"), encoding="utf-8").read()
    section = text.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line.removeprefix("oemarray ") for line in block.splitlines()]


def _readme_tool():
    spec = importlib.util.spec_from_file_location(
        "readme_outputs", os.path.join(ROOT, "tools", "readme_outputs.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_readme_command_list_matches_the_comparison_tool():
    # tools/readme_outputs.py times and compares exactly the README's commands
    assert _readme_commands() == _readme_tool().COMMANDS


def test_comparison_reports_files_missing_from_either_side(tmp_path, capsys):
    compare = _readme_tool().compare
    mine, other = tmp_path / "mine", tmp_path / "other"
    for d in (mine, other):
        d.mkdir()
        (d / "x.csv").write_text("omega\n1\n")
    assert compare(str(mine), str(other))
    assert capsys.readouterr().out == "x.csv: identical\n"
    # a file that only the other directory holds fails the comparison ...
    (other / "x_bandwidth.json").write_text("{}\n")
    assert not compare(str(mine), str(other))
    assert f"x_bandwidth.json: missing in {mine}\n" in capsys.readouterr().out
    # ... as one that only this directory holds always did
    assert not compare(str(other), str(mine))
    assert f"x_bandwidth.json: missing in {mine}\n" in capsys.readouterr().out
