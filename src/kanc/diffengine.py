"""Reverse-mode automatic differentiation over dense float64 arrays.

A :class:`Tape` is a flat list of nodes in topological order.  Building the
tape fixes the computation's structure; :meth:`Tape.forward` fills it with
values for a given set of named leaves, and :meth:`Tape.backward`
accumulates adjoints from a scalar node back to every leaf.  The same tape
can be re-run with new leaf values, which is how the training loops avoid
rebuilding graphs per epoch.  Nodes that depend on no leaf (the constant input grid and what is
computed from it alone) are evaluated on the first forward pass and reused
after that, and the backward pass sends no adjoint into them.

A Fourier edge layer is one ``fourier`` node.  Its tables of ``cos(k h)``
and ``sin(k h)`` come from :func:`fourier_tables`, which takes a single
``np.cos``/``np.sin`` pair of ``h`` and builds the higher frequencies by
angle addition.
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

    def __repr__(self):
        return f"Node({self.op}, args={self.args})"


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    grad = np.asarray(grad, dtype=float)
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def fourier_tables(h: np.ndarray, grid: int, out=None):
    """Tables ``C[k-1] = cos(k h)`` and ``S[k-1] = sin(k h)`` for
    ``k = 1..grid``, each of shape (grid, *h.shape).

    Only ``cos(h)`` and ``sin(h)`` are evaluated; each higher frequency
    follows from the one below by angle addition.  For ``k <= 8`` and
    ``|h| <= 50`` the entries are within 1e-13 of ``np.cos(k * h)``.
    ``out`` is an optional ``(C, S)`` pair of arrays to fill.
    """
    h = np.asarray(h, dtype=float)
    if out is None:
        out = (np.empty((grid,) + h.shape), np.empty((grid,) + h.shape))
    C, S = out
    c1, s1 = np.cos(h, out=C[0]), np.sin(h, out=S[0])
    tmp = np.empty(h.shape)
    for k in range(1, grid):
        np.multiply(C[k - 1], c1, out=C[k])
        C[k] -= np.multiply(S[k - 1], s1, out=tmp)
        np.multiply(S[k - 1], c1, out=S[k])
        S[k] += np.multiply(C[k - 1], s1, out=tmp)
    return C, S


def fourier_sum(C: np.ndarray, S: np.ndarray, cos_w: np.ndarray,
                sin_w: np.ndarray) -> np.ndarray:
    """Fourier layer output ``sum_k C[k] @ cos_w[:, :, k].T + S[k] @
    sin_w[:, :, k].T`` for (grid, N, n_in) tables and (n_out, n_in, grid)
    weights; the result is (N, n_out)."""
    out = np.zeros((C.shape[1], cos_w.shape[0]))
    tmp = np.empty_like(out)
    for k in range(C.shape[0]):
        out += np.matmul(C[k], cos_w[:, :, k].T, out=tmp)
        out += np.matmul(S[k], sin_w[:, :, k].T, out=tmp)
    return out


class Tape:
    """Computation recorder.  Methods append a node and return its index."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.leaf_names: dict[str, int] = {}
        self.values: list = []
        self._fixed: list[bool] = []   # node depends on no leaf
        self._folded: dict = {}        # values of fixed nodes, kept across passes
        self._basis_cache: dict = {}
        self._trig_cache: dict = {}
        self._table_buffers: dict = {}  # Fourier tables refilled each pass

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

    def exp(self, a):
        return self._push(Node("exp", (a,)))

    def log(self, a):
        return self._push(Node("log", (a,)))

    def sin(self, a):
        return self._push(Node("sin", (a,)))

    def cos(self, a):
        return self._push(Node("cos", (a,)))

    def tanh(self, a):
        return self._push(Node("tanh", (a,)))

    def atan(self, a):
        return self._push(Node("atan", (a,)))

    def silu(self, a):
        return self._push(Node("silu", (a,)))

    def absval(self, a):
        return self._push(Node("abs", (a,)))

    def spline(self, x, coeffs, kv: splines.KnotVector):
        """Spline combination ``sum_i c_i B_i(x)``, differentiable in both
        the coefficients and the input."""
        return self._push(Node("spline", (x, coeffs), kv))

    def fourier(self, h, cos_w, sin_w):
        """Fourier edge layer (see :func:`fourier_sum`) on an (N, n_in)
        input ``h`` with (n_out, n_in, grid) weights; differentiable in all
        three."""
        return self._push(Node("fourier", (h, cos_w, sin_w)))

    def sum(self, a, axis=None):
        return self._push(Node("sum", (a,), axis))

    def mean(self, a):
        s = self.sum(a)
        # aux remembers the pre-reduction node so the divisor is its size
        return self._push(Node("scale", (s,), a))

    def reshape(self, a, shape):
        return self._push(Node("reshape", (a,), tuple(shape)))

    def transpose(self, a):
        return self._push(Node("transpose", (a,)))

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
        # trig and basis values of a fixed argument stay valid too
        self._basis_cache = {k: p for k, p in self._basis_cache.items()
                             if fixed[k[0]]}
        self._trig_cache = {k: t for k, t in self._trig_cache.items()
                            if fixed[k[0]]}
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
                    val = v[a[0]] ** node.aux
                elif op == "exp":
                    val = np.exp(v[a[0]])
                elif op == "log":
                    val = np.log(v[a[0]])
                elif op == "sin":
                    val = self._trig(a[0], "sin")
                elif op == "cos":
                    val = self._trig(a[0], "cos")
                elif op == "fourier":
                    cos_w, sin_w = v[a[1]], v[a[2]]
                    C, S = self._fourier_tables(a[0], cos_w.shape[2])
                    val = fourier_sum(C, S, cos_w, sin_w)
                elif op == "tanh":
                    val = np.tanh(v[a[0]])
                elif op == "atan":
                    val = np.arctan(v[a[0]])
                elif op == "silu":
                    val = splines.silu(v[a[0]])
                elif op == "abs":
                    val = np.abs(v[a[0]])
                elif op == "spline":
                    basis, _ = self._basis_pair(node, v[a[0]])
                    val = basis @ v[a[1]]
                elif op == "sum":
                    val = np.sum(v[a[0]], axis=node.aux)
                elif op == "scale":
                    val = v[a[0]] / self.values_size(node.aux)
                elif op == "reshape":
                    val = np.reshape(v[a[0]], node.aux)
                elif op == "transpose":
                    val = np.transpose(v[a[0]])
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

    def values_size(self, idx) -> float:
        return float(np.asarray(self.values[idx]).size)

    def backward(self, output_index: int | None = None) -> dict:
        if not self.values or self.values[0] is None:
            raise RuntimeError("run forward before backward")
        if output_index is None:
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
                    accumulate(a[0], g * p * v[a[0]] ** (p - 1.0))
                elif op == "exp":
                    accumulate(a[0], g * v[idx])
                elif op == "log":
                    accumulate(a[0], g / v[a[0]])
                elif op == "sin":
                    accumulate(a[0], g * self._trig(a[0], "cos"))
                elif op == "cos":
                    accumulate(a[0], -g * self._trig(a[0], "sin"))
                elif op == "fourier":
                    cos_w, sin_w = v[a[1]], v[a[2]]
                    C, S = self._fourier_tables(a[0], cos_w.shape[2])
                    if live[a[1]]:
                        accumulate(a[1], np.stack([g.T @ c for c in C], axis=2))
                    if live[a[2]]:
                        accumulate(a[2], np.stack([g.T @ s for s in S], axis=2))
                    if live[a[0]]:
                        # d cos(kh)/dh = -k sin(kh), d sin(kh)/dh = k cos(kh)
                        dh = np.zeros(C.shape[1:])
                        tmp = np.empty_like(dh)
                        for k in range(C.shape[0]):
                            np.matmul(g, (k + 1) * sin_w[:, :, k], out=tmp)
                            dh += np.multiply(tmp, C[k], out=tmp)
                            np.matmul(g, (k + 1) * cos_w[:, :, k], out=tmp)
                            dh -= np.multiply(tmp, S[k], out=tmp)
                        accumulate(a[0], dh)
                elif op == "tanh":
                    accumulate(a[0], g * (1.0 - v[idx] ** 2))
                elif op == "atan":
                    accumulate(a[0], g / (1.0 + v[a[0]] ** 2))
                elif op == "silu":
                    accumulate(a[0], g * splines.silu_deriv(v[a[0]]))
                elif op == "abs":
                    accumulate(a[0], g * np.sign(v[a[0]]))
                elif op == "spline":
                    basis, dbasis = self._basis_pair(node, v[a[0]])
                    if live[a[1]]:
                        accumulate(a[1], basis.T @ g)
                    if live[a[0]]:
                        accumulate(a[0], g * (dbasis @ v[a[1]]))
                elif op == "sum":
                    axis = node.aux
                    if axis is None:
                        accumulate(a[0], np.broadcast_to(g, np.asarray(v[a[0]]).shape))
                    else:
                        accumulate(a[0], np.expand_dims(g, axis))
                elif op == "scale":
                    accumulate(a[0], g / self.values_size(node.aux))
                elif op == "reshape":
                    accumulate(a[0], np.reshape(g, np.asarray(v[a[0]]).shape))
                elif op == "transpose":
                    accumulate(a[0], np.transpose(g))
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

    def _trig(self, arg_idx, func):
        # One np.sin/np.cos per (node, function) per forward pass; the
        # backward sweep reuses the cached partner instead of recomputing.
        key = (arg_idx, func)
        val = self._trig_cache.get(key)
        if val is None:
            fn = np.sin if func == "sin" else np.cos
            val = fn(self.values[arg_idx])
            self._trig_cache[key] = val
        return val

    def _fourier_tables(self, arg_idx, grid):
        # One table pair per (node, grid) per forward pass, reused by the
        # backward sweep; kept across passes when the argument is fixed.
        # Tables of a leaf-dependent argument are refilled in place: fresh
        # multi-megabyte arrays on every pass cost more in page faults than
        # the angle additions that fill them.
        key = (arg_idx, "fourier", grid)
        tables = self._trig_cache.get(key)
        if tables is None:
            tables = fourier_tables(self.values[arg_idx], grid,
                                    out=self._table_buffers.get(key))
            self._trig_cache[key] = tables
            if not self._fixed[arg_idx]:
                self._table_buffers[key] = tables
        return tables

    def _basis_pair(self, node: Node, x_val):
        kv = node.aux
        key = (node.args[0], kv.key())
        pair = self._basis_cache.get(key)
        if pair is None:
            pair = (
                splines.basis_matrix(kv, x_val),
                splines.basis_deriv_matrix(kv, x_val),
            )
            self._basis_cache[key] = pair
        return pair


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
