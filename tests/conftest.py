"""Let the subprocesses that tests start (``python -m pcurv``, the demos)
import the package from this checkout."""

import os
import pathlib

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
