"""Reverse-mode automatic differentiation over dense float64 arrays.

A :class:`Tape` is a flat list of nodes in topological order.  Building the
tape fixes the computation's structure; :meth:`Tape.forward` fills it with
values for a given set of named leaves, and :meth:`Tape.backward`
accumulates adjoints from a scalar node back to every leaf.  The same tape
can be re-run with new leaf values, which is how the training loops avoid
rebuilding graphs per epoch.  Nodes that depend on no leaf (the constant input grid and what is
computed from it alone) are evaluated on the first forward pass and reused
after that, and the backward pass sends no adjoint into them.

Every elementwise function is one row of :data:`ELEMENTWISE`, its numpy
function and its adjoint, and one ``call`` op applies any row; the
primitives of pinned edges (:data:`networks.LIBRARY`) read the same table,
so the tape, the fit and the formula evaluate each function the same way.

A Fourier edge layer is one ``fourier`` node, its bias included.  Its
table of ``cos(k h)`` and ``sin(k h)`` comes from :func:`fourier_table`,
which takes a single ``np.cos``/``np.sin`` pair of ``h`` and builds the
higher frequencies by the Chebyshev recurrence ``cos((k+1)h) = 2 cos(h)
cos(kh) - cos((k-1)h)`` (and the same for sine), two in-place passes per
row.  The table is feature-major, one (2, grid, n_in, N) buffer, so the
forward, the weight adjoint and the input adjoint are each one BLAS call
over it.  A spline edge layer is one ``kan_layer`` node.  It works on the
``order + 1`` local basis rows of :func:`splines._local_basis`, one kernel
call per input column, and builds no dense basis matrix.

The working arrays a layer node's forward builds for its backward live in
one scratch entry per node.  Arrays that depend only on the node's input
(the Fourier table; the local basis and ``silu`` of each input column) are
kept across passes while that input is fixed and rebuilt otherwise, the
Fourier table in place.  The per-edge spline values live for one pass.
An ``mse`` node keeps its residual ``a - data`` there for its backward, so
a loss's squared-error term is one node.
"""

from __future__ import annotations

import numpy as np

from . import splines


class EvaluationError(ArithmeticError):
    """Raised when a forward pass produces a non-finite intermediate."""


class Node:
    __slots__ = ("op", "args", "aux")

    def __init__(self, op, args=(), aux=None):
        self.op = op
        self.args = args
        self.aux = aux


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    grad = np.asarray(grad, dtype=float)
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _power(x, p: float):
    """``x ** p``, by multiplication for the exponents 3, -2 and -3.

    numpy's ``**`` sends these to libm ``pow``, about 70 ns per element on
    negative bases against about 1 ns per product (x86-64, numpy 2.4).
    The negative powers square or cube the reciprocal, so no intermediate
    overflows or underflows where the result does not.  Within 2 ulp of
    ``np.power`` for 3 and -2 and within 4 ulp for -3; every other exponent
    (2 among them) keeps ``**``.
    """
    if p == 3.0:
        return x * x * x
    if p == -2.0:
        r = 1.0 / x
        r *= r
        return r
    if p == -3.0:
        r = 1.0 / x
        return r * r * r
    return x ** p


# The ``call`` op's functions: name -> (numpy function, adjoint(g, x, y)),
# where ``g`` is the output adjoint, ``x`` the argument and ``y`` the value.
ELEMENTWISE = {
    "exp": (np.exp, lambda g, x, y: g * y),
    "log": (np.log, lambda g, x, y: g / x),
    "sin": (np.sin, lambda g, x, y: g * np.cos(x)),
    "cos": (np.cos, lambda g, x, y: -g * np.sin(x)),
    "tan": (np.tan, lambda g, x, y: g * (1.0 + y ** 2)),
    "tanh": (np.tanh, lambda g, x, y: g * (1.0 - y ** 2)),
    "atan": (np.arctan, lambda g, x, y: g / (1.0 + x ** 2)),
    "abs": (np.abs, lambda g, x, y: g * np.sign(x)),
}


def fourier_table(h: np.ndarray, grid: int, out=None) -> np.ndarray:
    """Feature-major table ``P`` of an (N, n_in) input, shape (2, grid,
    n_in, N): ``P[0, k-1] = cos(k h).T`` and ``P[1, k-1] = sin(k h).T`` for
    ``k = 1..grid``, filled into ``out`` when given.

    Only ``c = cos(h)`` and ``s = sin(h)`` are evaluated, on the ``h.T``
    view; the higher rows follow the Chebyshev recurrence ``cos((k+1)h) =
    2c cos(kh) - cos((k-1)h)``, and the same for sine, from ``cos(0) = 1``
    and ``sin(0) = 0``: two in-place passes per row.  For ``k <= 8`` and
    ``|h| <= 50`` the entries are within 1e-13 of ``np.cos(k * h)``.
    """
    h = np.asarray(h, dtype=float).T
    if out is None:
        out = np.empty((2, grid) + h.shape)
    C, S = out
    c, s = np.cos(h, out=C[0]), np.sin(h, out=S[0])
    if grid > 1:
        two_c = c + c
        np.multiply(two_c, c, out=C[1])
        C[1] -= 1.0
        np.multiply(two_c, s, out=S[1])
    for k in range(2, grid):
        np.multiply(two_c, C[k - 1], out=C[k])
        C[k] -= C[k - 2]
        np.multiply(two_c, S[k - 1], out=S[k])
        S[k] -= S[k - 2]
    return out


def fourier_sum(P: np.ndarray, cos_w: np.ndarray, sin_w: np.ndarray,
                bias: np.ndarray) -> np.ndarray:
    """Fourier layer output ``bias + sum_{i,k} cos_w[:, i, k] cos(k h_i) +
    sin_w[:, i, k] sin(k h_i)`` from a :func:`fourier_table` ``P`` and
    (n_out, n_in, grid) weights, as one GEMM over the (2 grid n_in, N)
    table; the result is (N, n_out)."""
    # the weights in the row order of P: (n_out, 2, grid, n_in), flattened
    w = np.stack((cos_w, sin_w), axis=1).transpose(0, 1, 3, 2)
    out = w.reshape(w.shape[0], -1) @ P.reshape(-1, P.shape[-1])
    out += bias[:, None]
    return out.T


class Tape:
    """Computation recorder.  Methods append a node and return its index."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.leaf_names: dict[str, int] = {}
        self.values: list = []
        self._fixed: list[bool] = []   # node depends on no leaf
        self._folded: dict = {}        # values of fixed nodes, kept across passes
        self._scratch: dict = {}       # layer node -> its forward's working arrays

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _push(self, node: Node) -> int:
        for a in node.args:
            if not 0 <= a < len(self.nodes):
                raise ValueError(f"node argument {a} not yet on the tape")
        self.nodes.append(node)
        self._fixed.append(node.op == "const" or (
            node.op != "leaf" and all(self._fixed[a] for a in node.args)))
        return len(self.nodes) - 1

    def leaf(self, name: str, shape=()) -> int:
        if name in self.leaf_names:
            raise ValueError(f"duplicate leaf name {name!r}")
        idx = self._push(Node("leaf", aux=(name, tuple(shape))))
        self.leaf_names[name] = idx
        return idx

    def const(self, value) -> int:
        return self._push(Node("const", aux=np.asarray(value, dtype=float)))

    def add(self, a, b):
        return self._push(Node("add", (a, b)))

    def sub(self, a, b):
        return self._push(Node("sub", (a, b)))

    def mul(self, a, b):
        return self._push(Node("mul", (a, b)))

    def matmul(self, a, b):
        return self._push(Node("matmul", (a, b)))

    def pow(self, a, exponent: float):
        return self._push(Node("pow", (a,), float(exponent)))

    def call(self, a, name: str):
        """The :data:`ELEMENTWISE` function ``name`` applied to node ``a``."""
        if name not in ELEMENTWISE:
            raise ValueError(f"unknown elementwise function {name!r}")
        return self._push(Node("call", (a,), name))

    def kan_layer(self, h, coeffs, w_b, w_s, bias, kv: splines.KnotVector,
                  pinned: dict):
        """Spline edge layer on an (N, n_in) input ``h``: output column j is
        ``bias[j]`` plus, over i, ``w_b[i, j] silu(h_i) + w_s[i, j] sum_m
        coeffs[i, j, m] B_m(h_i)`` on the knots ``kv``.  ``pinned`` maps an
        edge (i, j) to the (N,) node that replaces its curve; the pinned
        edges' entries of ``coeffs``, ``w_b`` and ``w_s`` get zero adjoint.
        Differentiable in ``h``, the four arrays and the pinned nodes."""
        return self._push(Node("kan_layer", (h, coeffs, w_b, w_s, bias,
                                             *pinned.values()), (kv, dict(pinned))))

    def column(self, h, i: int):
        """Column ``i`` of a 2-D node, as an (N,) node."""
        return self._push(Node("column", (h,), int(i)))

    def fourier(self, h, cos_w, sin_w, bias):
        """Fourier edge layer (see :func:`fourier_sum`) on an (N, n_in)
        input ``h`` with (n_out, n_in, grid) weights and an (n_out,) bias;
        differentiable in all four."""
        return self._push(Node("fourier", (h, cos_w, sin_w, bias)))

    def sum(self, a):
        return self._push(Node("sum", (a,)))

    def mean(self, a):
        return self._push(Node("mean", (a,)))

    def mse(self, a, data):
        """Mean squared error ``mean((a - data)^2)`` of node ``a`` against
        a constant array ``data``, as one node."""
        return self._push(Node("mse", (a,), np.asarray(data, dtype=float)))

    def reshape(self, a, shape):
        return self._push(Node("reshape", (a,), tuple(shape)))

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def value(self, idx):
        return self.values[idx]

    def forward(self, leaf_values: dict) -> np.ndarray:
        missing = set(self.leaf_names) - set(leaf_values)
        if missing:
            raise ValueError(f"missing leaf values for {sorted(missing)}")
        self.values = [None] * len(self.nodes)
        fixed, folded = self._fixed, self._folded
        v = self.values
        with np.errstate(all="ignore"):
            for idx, node in enumerate(self.nodes):
                if idx in folded:
                    v[idx] = folded[idx]
                    continue
                op = node.op
                a = node.args
                if op == "leaf":
                    name, shape = node.aux
                    val = np.asarray(leaf_values[name], dtype=float)
                    if val.shape != shape:
                        raise ValueError(
                            f"leaf {name!r} expects shape {shape}, got {val.shape}"
                        )
                elif op == "const":
                    val = node.aux
                elif op == "add":
                    val = v[a[0]] + v[a[1]]
                elif op == "sub":
                    val = v[a[0]] - v[a[1]]
                elif op == "mul":
                    val = v[a[0]] * v[a[1]]
                elif op == "matmul":
                    val = v[a[0]] @ v[a[1]]
                elif op == "pow":
                    val = _power(v[a[0]], node.aux)
                elif op == "call":
                    val = ELEMENTWISE[node.aux][0](v[a[0]])
                elif op == "fourier":
                    P = self._scratch.get(idx)
                    if P is None or not fixed[a[0]]:
                        # refilled in place: a fresh multi-megabyte table on
                        # every pass costs more in page faults than the angle
                        # additions that fill it
                        P = self._scratch[idx] = fourier_table(
                            v[a[0]], v[a[1]].shape[2], out=P)
                    val = fourier_sum(P, v[a[1]], v[a[2]], v[a[3]])
                elif op == "kan_layer":
                    val = self._kan_layer(idx, node)
                elif op == "column":
                    val = v[a[0]][:, node.aux]
                elif op == "sum":
                    val = np.sum(v[a[0]])
                elif op == "mean":
                    val = np.sum(v[a[0]]) / float(v[a[0]].size)
                elif op == "mse":
                    d = self._scratch[idx] = v[a[0]] - node.aux
                    val = np.sum(d * d) / float(d.size)
                elif op == "reshape":
                    val = np.reshape(v[a[0]], node.aux)
                else:  # pragma: no cover
                    raise ValueError(f"unknown op {op!r}")
                val = np.asarray(val, dtype=float)
                if not np.all(np.isfinite(val)):
                    raise EvaluationError(
                        f"non-finite value at node {idx} (op {op!r})"
                    )
                v[idx] = val
                if fixed[idx]:
                    folded[idx] = val
        return v[-1]

    def backward(self) -> dict:
        """Adjoints of every leaf, by name, seeded at the last node."""
        if not self.values or self.values[0] is None:
            raise RuntimeError("run forward before backward")
        output_index = len(self.nodes) - 1
        out_val = self.values[output_index]
        if np.asarray(out_val).size != 1:
            raise ValueError("backward seeds a scalar output node")
        adj = [None] * len(self.nodes)
        adj[output_index] = np.ones_like(np.asarray(out_val, dtype=float))
        v = self.values
        live = [not f for f in self._fixed]

        def accumulate(i, g):
            # Stored adjoints may alias each other or forward values, so
            # accumulation must rebind (never mutate in place).  A fixed
            # node reaches no leaf, so its adjoint is never formed; binary
            # ops check ``live`` before computing a contribution.
            if not live[i]:
                return
            g = np.asarray(g, dtype=float)
            if adj[i] is None:
                adj[i] = _unbroadcast(g, np.asarray(v[i]).shape)
            else:
                adj[i] = adj[i] + _unbroadcast(g, np.asarray(v[i]).shape)

        with np.errstate(all="ignore"):
            for idx in range(output_index, -1, -1):
                g = adj[idx]
                if g is None:
                    continue
                node = self.nodes[idx]
                op, a = node.op, node.args
                if op in ("leaf", "const"):
                    continue
                if op == "add":
                    accumulate(a[0], g)
                    accumulate(a[1], g)
                elif op == "sub":
                    accumulate(a[0], g)
                    accumulate(a[1], -g)
                elif op == "mul":
                    if live[a[0]]:
                        accumulate(a[0], g * v[a[1]])
                    if live[a[1]]:
                        accumulate(a[1], g * v[a[0]])
                elif op == "matmul":
                    if live[a[0]]:
                        accumulate(a[0], g @ v[a[1]].T)
                    if live[a[1]]:
                        accumulate(a[1], v[a[0]].T @ g)
                elif op == "pow":
                    p = node.aux
                    accumulate(a[0], g * p * _power(v[a[0]], p - 1.0))
                elif op == "call":
                    accumulate(a[0], ELEMENTWISE[node.aux][1](g, v[a[0]], v[idx]))
                elif op == "fourier":
                    cos_w, sin_w = v[a[1]], v[a[2]]
                    n_out, n_in, grid = cos_w.shape
                    P = self._scratch[idx]              # (2, grid, n_in, N)
                    g_rows = g.T                        # (n_out, N)
                    if live[a[1]] or live[a[2]]:
                        dw = (g_rows @ P.reshape(-1, P.shape[-1]).T).reshape(
                            n_out, 2, grid, n_in).transpose(1, 0, 3, 2)
                        accumulate(a[1], dw[0])
                        accumulate(a[2], dw[1])
                    if live[a[3]]:
                        accumulate(a[3], g.sum(axis=0))
                    if live[a[0]]:
                        # d cos(kh)/dh = -k sin(kh), d sin(kh)/dh = k cos(kh),
                        # so the cos rows of P take k sin_w and the sin rows
                        # -k cos_w; one (n_out, 2 grid) @ (2 grid, N) product
                        # per input column, then scaled by g and summed over
                        # outputs
                        k = np.arange(1.0, grid + 1.0)
                        swapped = np.stack((sin_w * k, cos_w * -k), axis=2)
                        per_col = np.matmul(
                            swapped.transpose(1, 0, 2, 3).reshape(n_in, n_out, -1),
                            P.transpose(2, 0, 1, 3).reshape(n_in, 2 * grid, -1))
                        per_col *= g_rows
                        accumulate(a[0], per_col.sum(axis=1).T)
                elif op == "kan_layer":
                    for arg, adjoint in zip(a, self._kan_layer_adjoints(
                            idx, node, g, live[a[0]])):
                        if adjoint is not None:
                            accumulate(arg, adjoint)
                elif op == "column":
                    dh = np.zeros(np.shape(v[a[0]]))
                    dh[:, node.aux] = g
                    accumulate(a[0], dh)
                elif op == "sum":
                    accumulate(a[0], np.broadcast_to(g, np.asarray(v[a[0]]).shape))
                elif op == "mean":
                    accumulate(a[0], np.broadcast_to(g / float(v[a[0]].size),
                                                     v[a[0]].shape))
                elif op == "mse":
                    d = self._scratch[idx]
                    accumulate(a[0], (g / float(d.size)) * 2.0 * d)
                elif op == "reshape":
                    accumulate(a[0], np.reshape(g, np.asarray(v[a[0]]).shape))
                else:  # pragma: no cover
                    raise ValueError(f"unknown op {op!r}")

        grads = {}
        for name, idx in self.leaf_names.items():
            g = adj[idx]
            if g is None:
                _, shape = self.nodes[idx].aux
                g = np.zeros(shape)
            grads[name] = g
        return grads

    def _kan_layer(self, idx, node):
        v, a = self.values, node.args
        h, coeffs, w_b, w_s, bias = v[a[0]], v[a[1]], v[a[2]], v[a[3]], v[a[4]]
        kv, pinned = node.aux
        # input column i -> its local basis and silu, built when an edge
        # first reads it; edge (i, j) -> its spline value
        columns, _ = self._scratch.get(idx, ({}, None))
        if not self._fixed[a[0]]:
            columns = {}
        parts = {}
        self._scratch[idx] = columns, parts
        out = np.empty((h.shape[0], w_b.shape[1]))
        for j in range(w_b.shape[1]):
            col = None
            for i in range(w_b.shape[0]):
                if (i, j) in pinned:
                    edge = v[pinned[i, j]]
                else:
                    if i not in columns:
                        x = np.ascontiguousarray(h[:, i])
                        columns[i] = splines._local_basis(kv, x) + (splines.silu(x),)
                    first, vals, _, silu = columns[i]
                    part = parts[i, j] = splines._combine(first, vals, coeffs[i, j])
                    edge = silu * w_b[i, j] + part * w_s[i, j]
                col = edge if col is None else col + edge
            out[:, j] = col + bias[j]
        return out

    def _kan_layer_adjoints(self, idx, node, g, want_h):
        """Adjoints of a ``kan_layer`` node's arguments, in argument order;
        ``None`` for the input when ``want_h`` is false."""
        v, a = self.values, node.args
        h, coeffs, w_b, w_s = v[a[0]], v[a[1]], v[a[2]], v[a[3]]
        kv, pinned = node.aux
        g_cols = np.ascontiguousarray(g.T)
        d_coeffs, d_wb, d_ws = (np.zeros(x.shape) for x in (coeffs, w_b, w_s))
        d_h = np.zeros(h.shape) if want_h else None
        silu_adj = {}   # input column i -> sum over j of g_j w_b[i, j]
        columns, parts = self._scratch[idx]
        # last j first, the order in which a tape of per-edge nodes sums them
        for (i, j), part in reversed(parts.items()):
            first, vals, derivs, silu = columns[i]
            gj = g_cols[j]
            d_wb[i, j] = np.sum(gj * silu)
            d_ws[i, j] = np.sum(gj * part)
            gs = gj * w_s[i, j]
            # coefficient first + m sums vals[m] * gs
            slots = first + np.arange(len(vals))[:, None]
            d_coeffs[i, j] = np.bincount(slots.ravel(), (vals * gs).ravel(),
                                         kv.n_basis)
            if want_h:
                d_h[:, i] += gs * splines._combine(first, derivs, coeffs[i, j])
                silu_adj[i] = silu_adj.get(i, 0.0) + gj * w_b[i, j]
        for i, adj in silu_adj.items():
            d_h[:, i] += adj * splines.silu_deriv(h[:, i])
        return ([d_h, d_coeffs, d_wb, d_ws, g_cols.sum(axis=1)]
                + [g_cols[j] for _, j in pinned])


def grad_check(tape: Tape, leaf_values: dict, step: float = 1e-6) -> float:
    """Largest relative mismatch between tape gradients and central
    differences, taken over every element of every leaf.

    The relative error per element is |analytic - numeric| divided by
    (|analytic| + 1e-12).
    """
    leaf_values = {k: np.asarray(val, dtype=float) for k, val in leaf_values.items()}
    tape.forward(leaf_values)
    grads = tape.backward()
    worst = 0.0
    for name in tape.leaf_names:
        base = leaf_values[name]
        analytic = np.atleast_1d(np.asarray(grads[name], dtype=float))
        flat = np.atleast_1d(base.copy())
        for i in range(flat.size):
            orig = flat.flat[i]
            flat.flat[i] = orig + step
            hi = float(tape.forward({**leaf_values, name: flat.reshape(base.shape)}))
            flat.flat[i] = orig - step
            lo = float(tape.forward({**leaf_values, name: flat.reshape(base.shape)}))
            flat.flat[i] = orig
            numeric = (hi - lo) / (2.0 * step)
            err = abs(analytic.flat[i] - numeric) / (abs(analytic.flat[i]) + 1e-12)
            worst = max(worst, err)
    # restore values at the unperturbed point
    tape.forward(leaf_values)
    return worst
