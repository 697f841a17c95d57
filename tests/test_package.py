import importlib
import io
import re
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import ecodyn

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_public_name_is_its_submodules_object():
    for name in ecodyn.__all__:
        if name == "__version__":
            continue
        module, attribute = ecodyn._HOMES[name]
        home = importlib.import_module(f"ecodyn.{module}")
        assert getattr(ecodyn, name) is getattr(home, attribute), name
    assert set(ecodyn.__all__) <= set(dir(ecodyn))


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from ecodyn import *", namespace)
    assert all(name in namespace for name in ecodyn.__all__)


def test_submodules_resolve_and_unknown_names_raise():
    assert ecodyn.budget_dynamics is importlib.import_module("ecodyn.budget_dynamics")
    assert ecodyn.audit is importlib.import_module("ecodyn.audit")
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ecodyn.no_such_name
    with pytest.raises(ImportError):
        exec("from ecodyn import no_such_name", {})


def test_readme_quick_tour_runs_as_written():
    tour = re.search(r"A quick tour:\n\n```python\n(.*?)```", README.read_text(), re.S).group(1)
    out = io.StringIO()
    with redirect_stdout(out):
        exec(tour, {})
    lines = out.getvalue().splitlines()
    assert lines[0] == "1.0 7.5"
    assert abs(float(lines[1]) + 0.002) < 1e-4
    assert lines[2] == "0.279 True"
