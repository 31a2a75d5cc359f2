"""Reverse-mode automatic differentiation over dense float64 arrays.

A :class:`Tape` is a flat list of nodes in topological order.  Building the
tape fixes the computation's structure; :meth:`Tape.forward` fills it with
values for a given set of named leaves, and :meth:`Tape.backward`
accumulates adjoints from a scalar node back to every leaf.  The same tape
can be re-run with new leaf values, which is how the training loops avoid
rebuilding graphs per epoch.  Nodes that depend on no leaf (the constant input grid and what is
computed from it alone) are evaluated on the first forward pass and reused
after that, and the backward pass sends no adjoint into them.
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
