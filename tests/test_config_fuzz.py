"""The config contract under fuzzing: each tests/data config, with one to
three of its leaves replaced, runs to exit 0, 1 or 2 without an exception,
writes nothing to stdout when given --out, and a failed run says one
error: line."""

import json
import sys
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ecodyn.cli import main

DATA = Path(__file__).parent / "data"
CONFIGS = sorted(DATA.rglob("*.json"))

MISSPELT = "<misspell the leaf's key>"
POOL = [
    *(None, False, True, "x", [], {}, [1.0]),  # not numbers
    *(0, -0.0, 5e-324, -1, 3, 10**30, 2**53 + 1, sys.float_info.max),
    MISSPELT,
]

# examples per config; derandomized, so every run of the suite draws the same
FUZZ_EXAMPLES = 40


def _leaves(node, path=()):
    """The path to each value of node that is not an object or a list with
    items."""
    if isinstance(node, dict) and node:
        children = node.items()
    elif isinstance(node, list) and node:
        children = enumerate(node)
    else:
        return [path]
    return [leaf for key, child in children for leaf in _leaves(child, (*path, key))]


def _replace(cfg, path, value):
    """Put value at path in cfg; MISSPELT doubles the last letter of the
    leaf's key instead, and leaves a list item as it is."""
    *parents, last = path
    holder = reduce(getitem, parents, cfg)
    if value != MISSPELT:
        holder[last] = value
    elif isinstance(last, str):
        holder[last + last[-1]] = holder.pop(last)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.name)
@settings(
    max_examples=FUZZ_EXAMPLES,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_a_fuzzed_config_exits_0_1_or_2_with_one_error_line(tmp_path, capsys, config, data):
    cfg = json.loads(config.read_text())
    leaves = data.draw(st.lists(st.sampled_from(_leaves(cfg)), min_size=1, max_size=3, unique=True))
    for leaf in leaves:
        _replace(cfg, leaf, data.draw(st.sampled_from(POOL)))
    path = tmp_path / "fuzzed.json"
    path.write_text(json.dumps(cfg))
    command = config.name.partition("_")[0]
    rc = main([command, "--config", str(path), "--out", str(tmp_path / "rows")])
    out, err = capsys.readouterr()
    assert rc in (0, 1, 2)
    assert out == ""
    if rc:
        assert sum(line.startswith("error:") for line in err.splitlines()) == 1
