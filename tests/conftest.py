"""Child interpreters that the tests start import ecodyn from this checkout,
so the suite runs the same with or without an installed package.

Hypothesis keeps no example database: a failing draw is reported once and
not replayed by every later run in the same checkout, so each run draws
afresh and one unlucky draw fails one run, not all that follow."""

import os
from pathlib import Path

from hypothesis import settings

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

settings.register_profile("ecodyn", database=None)
settings.load_profile("ecodyn")
