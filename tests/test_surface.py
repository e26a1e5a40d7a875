"""The package root exports exactly the names the README's library example
imports, plus the two base classes that custom models subclass, so the
README and the package cannot drift apart. Models spell their point
evaluator once, as eval_points, and their box evaluator once, as
eval_boxes, which takes and returns bound arrays; only the error objective
reads boxes into such arrays. The README's table of the `validate` report
names the report's fields, in order. The CLI has two subcommands and uses only the
public names of the modules it imports from. The benchmark's microbenchmark
child still runs, so every name of the package it calls still exists. No
name in the package is kept alive by the tests alone."""

import argparse
import ast
import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import estbound
from estbound import cli
from estbound.framework import EstimatorModel, ObservationModel
from estbound.mlp import MlpLayer, MlpModel
from estbound.models import (
    ConstantEstimator,
    GradientDescentEstimator,
    IdentityEstimator,
    IdentityObservation,
    TrilaterationModel,
)
from estbound.pipeline import load_scenario, run_validate

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = Path(estbound.__file__).resolve().parent


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


def readme_report_fields():
    """Field names in the first column of the README's table of the
    `validate` report, in order."""
    section = README.read_text().split("`validate` prints", 1)[1]
    table = re.search(r"\| --- \| --- \|\n((?:\|.*\n)+)", section).group(1)
    return [
        name
        for row in table.splitlines()
        for name in re.findall(r"`(\w+)`", row.split("|")[1])
    ]


def test_readme_report_table_names_the_report_fields(scenario_dir):
    scenario = dataclasses.replace(
        load_scenario(scenario_dir / "identity.scn"), max_iterations=1, oracle=None
    )
    assert readme_report_fields() == list(run_validate(scenario).to_dict())


def package_classes():
    """Every class defined in a module of the package, by qualified name."""
    for info in pkgutil.iter_modules(estbound.__path__):
        module = importlib.import_module(f"estbound.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                yield f"{module.__name__}.{obj.__qualname__}", obj


# The private base of ObservationModel and EstimatorModel.
BASES = ["estbound.framework._Model"]


def test_only_the_base_classes_define_eval_point():
    # eval_point is the base's one-row wrapper of eval_points, the one
    # point evaluator each model implements.
    defining = [name for name, cls in package_classes() if "eval_point" in vars(cls)]
    assert sorted(defining) == BASES


def test_only_the_base_classes_define_eval_box():
    # eval_box is the base's one-box wrapper of eval_boxes, the one box
    # evaluator each model implements.
    defining = [name for name, cls in package_classes() if "eval_box" in vars(cls)]
    assert sorted(defining) == BASES


def test_only_the_base_class_defines_the_dim_check():
    defining = [name for name, cls in package_classes() if "_check_rows" in vars(cls)]
    assert sorted(defining) == BASES


def concrete_models():
    return [
        (name, cls)
        for name, cls in package_classes()
        if issubclass(cls, (ObservationModel, EstimatorModel))
        and not inspect.isabstract(cls)
    ]


def test_every_concrete_model_defines_eval_boxes():
    models = concrete_models()
    assert len(models) == 6
    assert [name for name, cls in models if "eval_boxes" not in vars(cls)] == []


def _trilateration():
    return TrilaterationModel([(10, -9), (5, 12), (-15, 0)])


# One small instance of each concrete model.
MODELS = {
    "estbound.models.IdentityObservation": lambda: IdentityObservation(2),
    "estbound.models.TrilaterationModel": _trilateration,
    "estbound.models.IdentityEstimator": lambda: IdentityEstimator(3),
    "estbound.models.ConstantEstimator": lambda: ConstantEstimator((1.0, -0.0), 3),
    "estbound.models.GradientDescentEstimator": lambda: GradientDescentEstimator(
        _trilateration(), iterations=3
    ),
    "estbound.mlp.MlpModel": lambda: MlpModel(
        [MlpLayer(((1.0, -1.0, 0.5), (0.0, 2.0, -1.0)), (0.5, -0.5), "relu")]
    ),
}


def test_the_contract_test_covers_every_concrete_model():
    assert sorted(MODELS) == sorted(name for name, _ in concrete_models())


@pytest.mark.parametrize("name", sorted(MODELS))
def test_eval_boxes_takes_and_returns_bound_arrays(name):
    # (k, in) lower and upper bound arrays give two float64 (k, out) arrays,
    # each row the row a one-row call gives; a wrong width raises the
    # message _check_rows gives for point rows.
    model = MODELS[name]()
    if isinstance(model, ObservationModel):
        n_in, n_out = model.n_params, model.n_obs
    else:
        n_in, n_out = model.n_obs, model.n_params
    rng = np.random.Generator(np.random.PCG64(0))
    for k in (0, 1, 3):
        lb = rng.uniform(0, 20, size=(k, n_in))
        ub = lb + rng.uniform(0, 1, size=(k, n_in))
        out = model.eval_boxes(lb, ub)
        assert isinstance(out, tuple) and len(out) == 2
        for bounds in out:
            assert isinstance(bounds, np.ndarray)
            assert bounds.dtype == np.float64 and bounds.shape == (k, n_out)
        assert (out[0] <= out[1]).all()
        for i in range(k):
            one = model.eval_boxes(lb[i : i + 1], ub[i : i + 1])
            assert [b.tobytes() for b in one] == [b[i : i + 1].tobytes() for b in out]
    wrong = np.zeros((2, n_in + 1))
    with pytest.raises(ValueError) as expected:
        model._check_rows(wrong)
    with pytest.raises(ValueError) as got:
        model.eval_boxes(wrong, wrong)
    assert str(got.value) == str(expected.value)


# Run in a fresh interpreter: a class whose __new__ was replaced cannot be
# given back object.__new__ in the same process (the restored class then
# rejects constructor arguments).
NO_INTERVAL_SCRIPT = """
import sys
import numpy as np
sys.path[:0] = sys.argv[1:3]
from test_surface import MODELS
from estbound.framework import ObservationModel
from estbound.interval import Interval
from estbound.mlp import load_mlp

models = [MODELS[name]() for name in sorted(MODELS)]
models.append(load_mlp(sys.argv[3]))

def refuse(cls, *args):
    raise AssertionError("an Interval was built")

Interval.__new__ = refuse
try:
    Interval(0.0, 0.0)
except AssertionError:
    pass
else:
    raise SystemExit("Interval.__new__ was not replaced")
rng = np.random.Generator(np.random.PCG64(1))
for model in models:
    n_in = model.n_params if isinstance(model, ObservationModel) else model.n_obs
    lb = rng.uniform(0, 20, size=(8, n_in))
    out_lb, out_ub = model.eval_boxes(lb, lb + 0.5)
    assert len(out_lb) == len(out_ub) == 8
print(len(models))
"""


def test_eval_boxes_builds_no_interval(scenario_dir):
    # Every box evaluator works on whole bound arrays: none turns rows back
    # into Interval objects, as a per-box loop of interval operations would.
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            NO_INTERVAL_SCRIPT,
            str(SRC.parent),
            str(Path(__file__).resolve().parent),
            str(scenario_dir / "mlp_3x32x32x2.json"),
        ],
        capture_output=True,
        text=True,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == f"{len(MODELS) + 1}\n"


def calls_of(tree, name):
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name
    ]


def test_only_the_framework_and_the_search_read_boxes_into_bound_arrays():
    # The one-box forms and the search's initial box and Cover.insert.
    callers = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if calls_of(ast.parse(path.read_text()), "_bounds")
    ]
    assert callers == ["framework.py", "optimizer.py"]


@pytest.mark.parametrize("module", ["models.py", "mlp.py"])
def test_models_import_no_box_type(module):
    tree = ast.parse((SRC / module).read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert imported & {"IntervalBox", "_box", "_bounds"} == set()


def bound_names(node):
    """The names a statement of a module or a class body defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def definitions(module, tree):
    """(qualified name, name, whether it is a class member) for each name
    that tree defines at module level outside its __all__ and each member
    of its classes. Dunder names are left out: the protocols call them."""
    body = {name: node for node in tree.body for name in bound_names(node)}
    exported = ast.literal_eval(body["__all__"].value)
    found = [(f"{module}.{name}", name, False) for name in body if name not in exported]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            found += [
                (f"{module}.{cls.name}.{name}", name, True)
                for child in cls.body
                for name in bound_names(child)
            ]
    return [item for item in found if not item[1].startswith("__")]


def references(tree):
    """The names tree reads or imports, and the attribute and keyword
    names it uses."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg:
            attributes.add(node.arg)
    return names, attributes


def test_every_private_name_and_member_has_a_caller_outside_the_tests():
    # A name that only the tests use is code in src/ that exists for them.
    # Callers are the package, the benchmark and the README's Python code
    # blocks; argparse calls the parser's error override.
    modules = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    callers = list(modules.values())
    callers += [ast.parse(p.read_text()) for p in README.parent.glob("perfbench/*.py")]
    callers += [
        ast.parse(code)
        for code in re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    ]
    names, attributes = set(), set()
    for tree in callers:
        read, used = references(tree)
        names |= read
        attributes |= used
    unused = [
        qualified
        for module, tree in sorted(modules.items())
        for qualified, name, member in definitions(module, tree)
        if name not in (attributes if member else names | attributes)
    ]
    assert unused == ["cli._Parser.error"]


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


def test_benchmark_micro_child_runs(tmp_path):
    # perfbench/child.py calls names that nothing else in the package or the
    # CLI calls (the one-box forms, Cover.insert and pop); this run is the
    # only check outside a benchmark run that they still exist. It writes
    # nothing under perfbench/.
    root = README.parent
    doc = json.loads((root / "scenarios" / "identity.scn").read_text())
    scenario = tmp_path / "identity.scn"
    scenario.write_text(json.dumps(dict(doc, oracle=None)))
    done = subprocess.run(
        [
            sys.executable,
            str(root / "perfbench" / "child.py"),
            "micro",
            "--scenario",
            str(scenario),
            "--root",
            str(root),
        ],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1"),
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["failures"] == []
