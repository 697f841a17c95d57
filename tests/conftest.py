"""Child interpreters that the tests start import ecodyn from this checkout,
so the suite runs the same with or without an installed package."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
