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

import numpy as np  # noqa: E402
import pytest  # noqa: E402


@pytest.fixture
def spline_layer():
    """Builder of a 1x1 ``kan_layer`` whose output is the spline part alone
    (w_b = 0, w_s = 1, bias 0), as an (N,) node: ``build(tape, x, coeffs,
    kv)`` with ``x`` an (N, 1) node and ``coeffs`` a (1, 1, n_basis) node."""
    def build(tape, x, coeffs, kv):
        out = tape.kan_layer(x, coeffs, tape.const(np.zeros((1, 1))),
                             tape.const(np.ones((1, 1))),
                             tape.const(np.zeros(1)), kv, {})
        return tape.reshape(out, (-1,))
    return build
