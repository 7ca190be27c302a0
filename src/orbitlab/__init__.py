"""orbitlab: exact ball volumes in S-arithmetic groups, lattice-ball
enumeration, and orbit equidistribution experiments.

The package is organized by layer:

* :mod:`orbitlab.places` -- exact rational scalars with per-place
  absolute values (one archimedean place, finite places indexed by a
  prime p).
* :mod:`orbitlab.linalg` -- small exact matrices and wedge powers.
* :mod:`orbitlab.balls` -- the size function as an exact squared-norm
  kernel, and enumeration of norm balls in SL(2,Z), SL(2,Z[1/p]) and
  SL(n,Z), with congruence windows.
* :mod:`orbitlab.volumes` -- closed-form and first-principles volumes
  of balls and skew balls in subgroups, residue-class asymptotics.
* :mod:`orbitlab.equidist` -- orbit sums against test functions,
  predicted densities, distribution reports.
* :mod:`orbitlab.cli` -- the ``orbitlab`` command line front end.
"""

from __future__ import annotations

import os
import sys

__version__ = "0.1.0"

__all__ = ["__version__"]


def _import_numpy_with_one_blas_thread() -> None:
    """Import numpy with OpenBLAS limited to the calling thread.

    orbitlab's parallelism is its own worker pool (``ORBITLAB_THREADS``);
    its only BLAS calls are least-squares fits of a few dozen rows.  An
    OpenBLAS pool would start at load and busy-wait on the cores the
    workers use.  OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once, at load,
    so the variable is set only for the import and removed again: child
    processes see the caller's environment.  A caller's own value, or a
    numpy loaded before orbitlab, is left as it is.
    """
    if "numpy" in sys.modules or "OPENBLAS_NUM_THREADS" in os.environ:
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


_import_numpy_with_one_blas_thread()
