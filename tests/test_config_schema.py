"""The in-package config checker against jsonschema as an oracle.

Every shipped config and every CLI test config is mutated at random
(keys dropped or added, values swapped for wrong types, out-of-range
numbers and other kinds) and both checkers must report the same errors,
path and message, in the same order.
"""

import copy
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

jsonschema = pytest.importorskip("jsonschema")
referencing = pytest.importorskip("referencing")

from qmap import cli  # noqa: E402

from conftest import INFODIM_CFG, PHASE_CFG, PROJECT_CFG, RECOVER_CFG, VALIDATE_CFG  # noqa: E402

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
COMMANDS = ("recover", "phase", "infodim", "validate", "project")

SHIPPED = [(path.name.split("_")[0], json.loads(path.read_text()))
           for path in sorted(CONFIGS.glob("*.json"))]
BASES = [base for base in SHIPPED if base[0] != "project"]
BASES += [
    ("recover", RECOVER_CFG),
    ("phase", PHASE_CFG),
    ("infodim", INFODIM_CFG),
    ("validate", VALIDATE_CFG),
    ("project", dict(PROJECT_CFG, input="vec.csv",
                     projector={"kind": "lagrangian", "alpha": 0.01})),
    ("project", dict(PROJECT_CFG, input="vec.csv",
                     projector={"kind": "constrained", "gamma": 0.5})),
    ("infodim", dict(INFODIM_CFG, model={"kind": "table_markov", "kernel": {
        "b": 1, "k": 1, "lo": 0.0, "hi": 1.0,
        "rows": [{"context": [0], "probs": [0.9, 0.1]}, {"context": [1], "probs": [0.2, 0.8]}],
    }})),
]
# pytest numbers these parameters by position.  The shipped project configs
# came to configs/ last, so they go last: each earlier number keeps naming
# the same config
BASES += [base for base in SHIPPED if base[0] == "project"]
assert {command for command, _ in BASES} == set(COMMANDS)

KINDS = ["spike_slab", "pc_markov", "table_markov", "l0", "constrained", "lagrangian",
         "unit", "normalized", "single", "homotopy", "bogus"]
KEYS = ["bogus", "kind", "p", "path", "kernel", "s", "gamma", "delta", "alpha", "m", "n",
        "b", "k", "seed", "trials", "sigma", "mu", "lo", "hi", "rows", "probs", "f_min",
        "p_grid", "m_over_n", "chi_square", "f_minimax", "g", "epsilon", "alpha_points"]
VALUES = st.one_of(
    st.sampled_from([None, True, False, 0, 1, 2, 3, -1, 0.0, 0.5, 1.0, 2.0, -0.5, 1.5,
                     1e9, -1e-300, "x", [], [0.5], [0, 2], [0.5, 1.5], {}, {"kind": "l0"}]),
    st.sampled_from(KINDS),
    st.integers(-3, 3),
    st.floats(-2.0, 2.0, allow_nan=False),
)


def _oracle(command: str):
    def load(name):
        return json.loads((Path(cli.__file__).parent / "schemas" / f"{name}.schema.json")
                          .read_text())

    schema = load(command)
    registry = referencing.Registry().with_resources([
        ("qmap/recover.schema.json", referencing.Resource.from_contents(load("recover"))),
        (f"qmap/{command}.schema.json", referencing.Resource.from_contents(schema)),
    ])
    return jsonschema.Draft202012Validator(schema, registry=registry)


ORACLES = {command: _oracle(command) for command in COMMANDS}


def oracle_errors(config, command):
    return [(tuple(e.absolute_path), e.message) for e in ORACLES[command].iter_errors(config)]


def _nodes(value, path=()):
    """Every (path, container) in a config, the root first."""
    if isinstance(value, (dict, list)):
        yield path, value
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, child in items:
            yield from _nodes(child, path + (key,))


@st.composite
def mutated(draw):
    command, base = draw(st.sampled_from(BASES))
    config = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        _, node = draw(st.sampled_from(list(_nodes(config))))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        op = draw(st.sampled_from(["drop", "add", "replace", "kind"]))
        if op == "drop" and keys:
            del node[draw(st.sampled_from(keys))]
        elif op == "add" and isinstance(node, dict):
            node[draw(st.sampled_from(KEYS))] = copy.deepcopy(draw(VALUES))
        elif op == "replace" and keys:
            node[draw(st.sampled_from(keys))] = copy.deepcopy(draw(VALUES))
        elif op == "kind" and isinstance(node, dict):
            node["kind"] = draw(st.sampled_from(KINDS))
    return command, config


@pytest.mark.parametrize("command, config", BASES)
def test_base_configs_are_valid(command, config):
    assert cli._schema_errors(config, command) == oracle_errors(config, command) == []


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated())
def test_checker_matches_jsonschema(case):
    command, config = case
    assert cli._schema_errors(config, command) == oracle_errors(config, command)


@pytest.mark.parametrize("value", [2.0, 2, 2.5, True, False, None, "2", -1, -1.0, [2]])
def test_integer_and_number_semantics(value):
    # 2.0 is an integer; a bool is neither an integer nor a number; bounds
    # apply to numbers only
    config = dict(RECOVER_CFG, m=value, sigma=value)
    assert cli._schema_errors(config, "recover") == oracle_errors(config, "recover")


@pytest.mark.parametrize("keyword, arg", [
    ("pattern", "^x"),
    ("anyOf", [{"type": "string"}]),
    ("additionalProperties", {"type": "string"}),
    ("enum", ["a", 1]),
    ("type", "int"),
    ("not", {"type": "string"}),
    ("else", {"type": "string"}),
])
def test_unsupported_keyword_raises(keyword, arg):
    schema = {"type": "object", "properties": {"a": {"type": "string", keyword: arg}}}
    with pytest.raises(NotImplementedError, match=f"keyword '{keyword}'"):
        cli._check_keywords(schema)
