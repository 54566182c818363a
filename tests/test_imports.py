import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import mackeybox

# the directory that holds the imported package: src/ or an install
PACKAGE_ROOT = str(pathlib.Path(mackeybox.__file__).resolve().parents[1])
MODULES = sorted(m.name for m in pkgutil.iter_modules(mackeybox.__path__))


def test_every_layer_listed():
    assert {"intlinalg", "exactlin", "mackey", "boxtensor", "green", "grading", "simplicial"} <= set(
        MODULES
    )


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_first_in_fresh_interpreter(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", f"import mackeybox.{name}"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
