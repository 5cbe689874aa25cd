"""vecot on a numpy whose einsum kernel is not at ``numpy._core.multiarray``.

numpy 1.26, the oldest numpy vecot supports, has no ``numpy._core``, so
``vecot.core._einsum`` falls back to ``np.einsum``, which calls the same
kernel.  The fallback is run here by deleting the kernel's name before vecot
is imported, and its documents must equal a normal run's byte for byte.
"""

from __future__ import annotations

import numpy as np
import pytest

from vecot import build_instance, dumps_instance

from harness import python

# Runs the vecot command line given after the mode.  In mode "fallback" the
# kernel's name is gone before vecot is imported, and vecot must use np.einsum.
SCRIPT = """
import sys
import numpy as np
if sys.argv[1] == "fallback":
    import numpy._core.multiarray
    del numpy._core.multiarray.c_einsum
import vecot.core
assert (vecot.core._einsum is np.einsum) == (sys.argv[1] == "fallback")
from vecot.cli import main
sys.exit(main(sys.argv[2:]))
"""


def cli(mode: str, *argv: str):
    return python("-W", "error", "-c", SCRIPT, mode, *argv)


@pytest.mark.skipif(
    not hasattr(getattr(np, "_core", None), "multiarray"), reason="numpy has no numpy._core"
)
@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--input", "{instance}"],
        ["disintegrate", "--box", "-3", "3", "-3", "3", "-3", "3", "--resolution", "17",
         "--cd", "0,inf"],
    ],
    ids=["solve-m2", "disintegrate-slice-cd"],
)
def test_the_np_einsum_fallback_writes_the_bytes_of_a_normal_run(tmp_path, argv):
    rng = np.random.default_rng([20, 2])
    w = rng.normal(size=(20, 2))
    path = tmp_path / "instance.json"
    path.write_text(dumps_instance(build_instance(rng.uniform(-1, 1, (20, 2)), w - w.mean(0))))
    argv = [a.format(instance=path) for a in argv]
    normal = cli("normal", *argv)
    assert normal.returncode == 0, normal.stderr
    fallback = cli("fallback", *argv)
    assert fallback.returncode == 0, fallback.stderr
    assert fallback.stdout == normal.stdout
