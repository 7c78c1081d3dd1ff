"""Simulation laboratory for measurement-based feedback state preparation on a qutrit."""

import os

# Parallelism comes from worker processes (QFC_THREADS), one BLAS thread each:
# set before numpy loads, and a value already set wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

# the benchmark's self-test calls these two through the package root
from .qcore import basis_state, fidelity_pure_target  # noqa: E402

__version__ = "0.1.0"
