"""The package root exports exactly the names the README's library example
imports, plus the two base classes that custom models subclass, so the
README and the package cannot drift apart. Models spell their point
evaluator once, as eval_points, and their box evaluator once, as
eval_boxes. The CLI has two subcommands and uses only the public names of
the modules it imports from."""

import argparse
import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import estbound
from estbound import cli
from estbound.framework import EstimatorModel, ObservationModel

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_library_imports():
    """Names imported from `estbound` by the README's library code block."""
    section = README.read_text().split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    return [
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "estbound"
        for alias in node.names
    ]


def test_root_exports_are_the_readme_example_and_base_classes():
    expected = readme_library_imports() + ["ObservationModel", "EstimatorModel"]
    assert sorted(estbound.__all__) == sorted(expected)
    for name in estbound.__all__:
        getattr(estbound, name)


def package_classes():
    """Every class defined in a module of the package, by qualified name."""
    for info in pkgutil.iter_modules(estbound.__path__):
        module = importlib.import_module(f"estbound.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                yield f"{module.__name__}.{obj.__qualname__}", obj


BASES = ["estbound.framework.EstimatorModel", "estbound.framework.ObservationModel"]


def test_only_the_base_classes_define_eval_point():
    # eval_point is the bases' one-row wrapper of eval_points, the one
    # point evaluator each model implements.
    defining = [name for name, cls in package_classes() if "eval_point" in vars(cls)]
    assert sorted(defining) == BASES


def test_only_the_base_classes_define_eval_box():
    # eval_box is the bases' one-box wrapper of eval_boxes, the one box
    # evaluator each model implements.
    defining = [name for name, cls in package_classes() if "eval_box" in vars(cls)]
    assert sorted(defining) == BASES


def test_every_concrete_model_defines_eval_boxes():
    models = [
        (name, cls)
        for name, cls in package_classes()
        if issubclass(cls, (ObservationModel, EstimatorModel))
        and not inspect.isabstract(cls)
    ]
    assert len(models) == 6
    assert [name for name, cls in models if "eval_boxes" not in vars(cls)] == []


def test_cli_subcommands_are_validate_and_oracle():
    (sub,) = [
        action
        for action in cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert set(sub.choices) == {"validate", "oracle"}


def test_cli_imports_no_private_name():
    tree = ast.parse(Path(cli.__file__).read_text())
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
