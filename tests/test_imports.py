import os
import subprocess
import sys

import prolatesum


def _loaded_after(statement: str, module: str) -> bool:
    # a fresh interpreter, so that modules imported by other tests do not count;
    # it imports the same prolatesum as this process
    src = os.path.dirname(os.path.dirname(prolatesum.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"import sys; {statement}; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip() == "True"


def test_import_leaves_out_scipy_integrate():
    assert not _loaded_after("import prolatesum", "scipy.integrate")


def test_cli_import_leaves_out_scipy_special():
    assert not _loaded_after("import prolatesum.cli", "scipy.special")
