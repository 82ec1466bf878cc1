import os
import subprocess
import sys

import pytest

import prolatesum


def _run(code: str) -> str:
    # a fresh interpreter, so that modules imported by other tests do not count;
    # it imports the same prolatesum as this process
    src = os.path.dirname(os.path.dirname(prolatesum.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout


def _loaded_after(statement: str, module: str) -> bool:
    return _run(f"import sys; {statement}; print({module!r} in sys.modules)").strip() == "True"


def test_import_leaves_out_scipy_integrate():
    assert not _loaded_after("import prolatesum", "scipy.integrate")


@pytest.mark.parametrize("module", ["scipy.special", "scipy.linalg", "numpy.f2py"])
def test_cli_import_leaves_out(module):
    assert not _loaded_after("import prolatesum.cli", module)


# one Galerkin block's eigensystem, a Gauss-Jacobi rule, and scipy's own sterf
# on the same block, once both prolatesum and scipy.linalg are imported
_DIGEST = """
import hashlib
import scipy.linalg
from prolatesum.prolate import ProlateSpec, build_galerkin
from prolatesum.specfun import gauss_jacobi, symtridiag_eigen
block = build_galerkin(ProlateSpec("gpswf", 0.0, 16.0, 512))[0]
rule = gauss_jacobi(513, 0.0, 0.0)
arrays = [*symtridiag_eigen(block.diag, block.off), rule.nodes, rule.weights,
          scipy.linalg.eigh_tridiagonal(block.diag, block.off, eigvals_only=True, lapack_driver="sterf")]
print(hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest())
"""


def test_results_do_not_depend_on_when_scipy_linalg_is_imported():
    before = _run("import scipy.linalg; import prolatesum\n" + _DIGEST)
    after = _run("import sys, prolatesum; assert 'scipy.linalg' not in sys.modules\n" + _DIGEST)
    assert before == after
