"""Hypothesis fuzz of scenario documents through the CLI.

One field of scenarios/constant.scn, at the top level or inside one of its
sections, is replaced by an arbitrary JSON value. Whatever the value,
`estbound validate` must end in exit code 0, 1 or 2 without letting an
exception escape, and exit 1 must come with a one-line error. The search
runs under `--max-iters 50`, so that a replaced tolerance cannot make an
example run for seconds.
"""

import json
import math
from pathlib import Path

import pytest

from estbound import cli

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

CONSTANT = json.loads(
    (Path(__file__).parents[1] / "scenarios" / "constant.scn").read_text()
)


def field_paths(doc, prefix=()):
    """The key path of every field: top-level keys and section keys."""
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from field_paths(value, prefix + (key,))


# Strings and keys the readers look for, so that replaced sections also
# reach the model and option checks, not only the type checks.
WORDS = [
    "type", "identity", "constant", "trilateration", "gradient_descent", "mlp",
    "value", "landmarks", "weights_path", "init", "iterations", "step",
    "delta", "max_iterations", "samples", "seed", "mode", "random", "grid",
]

# Small numbers keep every sample count, and so every example, well under a
# second; an integral float counts as an integer. The special floats are
# drawn on their own.
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(-4.0, 4.0)
    | st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324])
    | st.sampled_from(WORDS)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(WORDS) | st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@hypothesis.settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture],
)
@hypothesis.given(
    path=st.sampled_from(sorted(field_paths(CONSTANT))), value=json_values
)
def test_validate_never_escapes(tmp_path, capsys, path, value):
    doc = json.loads(json.dumps(CONSTANT))
    section = doc
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    scenario = tmp_path / "fuzz.scn"
    scenario.write_text(json.dumps(doc))
    capsys.readouterr()

    code = cli.main(["validate", "--scenario", str(scenario), "--max-iters", "50"])

    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err
