import os
import subprocess
import sys

import zetapoly

SRC = os.path.dirname(os.path.dirname(zetapoly.__file__))


def test_every_exported_name_resolves():
    for name in zetapoly.__all__:
        assert hasattr(zetapoly, name), name


def test_import_loads_neither_dataclasses_nor_inspect():
    # in a fresh interpreter, importing the package and its CLI must not
    # pull in dataclasses or inspect (the records are plain classes)
    script = "; ".join([
        "import sys, zetapoly, zetapoly.cli",
        "print([name for name in ('dataclasses', 'inspect') if name in sys.modules])",
    ])
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=60,
        check=True,
    )
    assert done.stdout.strip() == "[]"
