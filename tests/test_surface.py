"""The package root exports exactly the names the README's library example
imports, plus the two base classes that custom models subclass, so the
README and the package cannot drift apart."""

import ast
import re
from pathlib import Path

import estbound

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
