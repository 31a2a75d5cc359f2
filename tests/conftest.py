"""Suite-wide settings.

The training runs in this suite multiply tall, thin matrices.  A
multi-threaded BLAS spends more time handing such products between
threads than computing them, and on a busy machine each product waits for
its slowest thread.  BLAS is pinned to one thread, as the benchmark pins
it, unless the caller already chose a count.  The variables are read when
numpy loads its BLAS, so they are set here, before any test module
imports numpy.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
