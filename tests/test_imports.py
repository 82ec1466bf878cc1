import os
import subprocess
import sys

import prolatesum


def test_import_leaves_out_scipy_integrate():
    # a fresh interpreter, so that modules imported by other tests do not count;
    # it imports the same prolatesum as this process
    src = os.path.dirname(os.path.dirname(prolatesum.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, prolatesum; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
