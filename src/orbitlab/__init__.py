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

__version__ = "0.1.0"

__all__ = ["__version__"]
