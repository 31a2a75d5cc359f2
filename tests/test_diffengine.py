"""Tests for the reverse-mode tape engine."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kanc import diffengine, splines
from kanc.diffengine import (EvaluationError, Tape, fourier_sum,
                             fourier_tables, grad_check)


class TestForward:
    def test_square(self):
        """x**2 at x=3 evaluates to 9 with gradient 6."""
        tape = Tape()
        x = tape.leaf("x")
        tape.pow(x, 2.0)
        assert tape.forward({"x": 3.0}) == 9.0
        grads = tape.backward()
        assert grads["x"] == 6.0

    def test_product_rule(self):
        """x * sin(x) at pi/2 gives value pi/2 and gradient 1."""
        tape = Tape()
        x = tape.leaf("x")
        tape.mul(x, tape.sin(x))
        val = tape.forward({"x": np.pi / 2})
        assert_allclose(val, np.pi / 2, rtol=1e-15)
        grads = tape.backward()
        # d/dx x sin x = sin x + x cos x = 1 at pi/2
        assert_allclose(grads["x"], 1.0, rtol=0, atol=1e-15)

    def test_vector_sum_of_sin(self):
        """Gradient of sum(sin(x)) is cos(x) elementwise."""
        tape = Tape()
        x = tape.leaf("x", (5,))
        tape.sum(tape.sin(x))
        xs = np.linspace(-1.0, 2.0, 5)
        tape.forward({"x": xs})
        grads = tape.backward()
        assert_allclose(grads["x"], np.cos(xs), rtol=1e-14)

    def test_matmul_chain(self):
        """A tiny linear layer evaluates like plain numpy."""
        rng = np.random.default_rng(0)
        X = rng.normal(size=(4, 3))
        W = rng.normal(size=(3, 2))
        tape = Tape()
        w = tape.leaf("W", (3, 2))
        tape.sum(tape.tanh(tape.matmul(tape.const(X), w)))
        val = tape.forward({"W": W})
        assert_allclose(val, np.tanh(X @ W).sum(), rtol=1e-14)

    def test_missing_leaf_raises(self):
        tape = Tape()
        tape.leaf("x")
        with pytest.raises(ValueError):
            tape.forward({})

    def test_nonfinite_intermediate_names_node(self):
        """log of a negative number aborts with the offending node index."""
        tape = Tape()
        x = tape.leaf("x")
        bad = tape.log(x)
        tape.sum(bad)
        with pytest.raises(EvaluationError) as err:
            tape.forward({"x": -1.0})
        assert f"node {bad}" in str(err.value)

    def test_shape_mismatch_raises(self):
        tape = Tape()
        tape.leaf("x", (3,))
        with pytest.raises(ValueError):
            tape.forward({"x": np.zeros(4)})


class TestBackward:
    def test_requires_scalar_output(self):
        tape = Tape()
        x = tape.leaf("x", (3,))
        tape.sin(x)
        tape.forward({"x": np.zeros(3)})
        with pytest.raises(ValueError):
            tape.backward()

    def test_unused_leaf_gets_zero_gradient(self):
        tape = Tape()
        x = tape.leaf("x")
        tape.leaf("y", (2,))
        tape.pow(x, 2.0)
        tape.forward({"x": 2.0, "y": np.ones(2)})
        grads = tape.backward()
        assert_allclose(grads["y"], np.zeros(2), rtol=0, atol=0)

    def test_linearity_of_adjoints(self):
        """Gradient of a*f + b*g is a*grad(f) + b*grad(g)."""
        xs = np.array([0.3, -0.7, 1.1])

        def build(alpha, beta):
            tape = Tape()
            x = tape.leaf("x", (3,))
            f = tape.sum(tape.sin(x))
            g = tape.sum(tape.pow(x, 2.0))
            tape.add(
                tape.mul(tape.const(alpha), f), tape.mul(tape.const(beta), g)
            )
            tape.forward({"x": xs})
            return tape.backward()["x"]

        combined = build(2.0, -3.0)
        assert_allclose(combined, 2.0 * build(1.0, 0.0) - 3.0 * build(0.0, 1.0),
                        rtol=1e-13)

    def test_broadcast_bias_gradient(self):
        """Adding a (m,) bias to an (n, m) matrix sums gradients over rows."""
        tape = Tape()
        b = tape.leaf("b", (3,))
        tape.sum(tape.add(tape.const(np.zeros((5, 3))), b))
        tape.forward({"b": np.zeros(3)})
        grads = tape.backward()
        assert_allclose(grads["b"], np.full(3, 5.0), rtol=0, atol=0)

    def test_repeated_forward_reuses_tape(self):
        """The same tape re-runs with fresh leaf values."""
        tape = Tape()
        x = tape.leaf("x")
        tape.exp(x)
        assert_allclose(tape.forward({"x": 0.0}), 1.0, rtol=0)
        assert_allclose(tape.forward({"x": 1.0}), np.e, rtol=1e-15)
        grads = tape.backward()
        assert_allclose(grads["x"], np.e, rtol=1e-15)

    def test_constant_subgraph_is_evaluated_once(self, monkeypatch):
        """sin of a constant runs on the first pass only; later passes with
        new leaf values reuse it and still give exact values and gradients."""
        xs = np.linspace(0.1, 1.0, 5)
        tape = Tape()
        w = tape.leaf("w", (5,))
        tape.sum(tape.mul(tape.sin(tape.const(xs)), w))
        calls = []
        real_sin = np.sin
        monkeypatch.setattr(diffengine.np, "sin",
                            lambda a: calls.append(1) or real_sin(a))
        for scale in (1.0, 2.0, 3.0):
            value = tape.forward({"w": np.full(5, scale)})
            assert value == scale * real_sin(xs).sum()
            assert np.array_equal(tape.backward()["w"], real_sin(xs))
        assert len(calls) == 1


class TestSplinePrimitive:
    def test_spline_value_matches_module(self):
        rng = np.random.default_rng(3)
        kv = splines.KnotVector(grid_size=5, order=3)
        coeffs = rng.normal(size=kv.n_basis)
        xs = rng.uniform(0.0, 1.0, size=20)
        tape = Tape()
        c = tape.leaf("c", coeffs.shape)
        tape.spline(tape.const(xs), c, kv)
        val = tape.forward({"c": coeffs})
        assert_allclose(val, splines.basis_matrix(kv, xs) @ coeffs, rtol=1e-14)

    def test_spline_coefficient_gradient(self):
        """d(sum spline)/dc_i is the column sum of the basis matrix."""
        kv = splines.KnotVector(grid_size=4, order=3)
        xs = np.linspace(0.1, 0.9, 15)
        tape = Tape()
        c = tape.leaf("c", (kv.n_basis,))
        tape.sum(tape.spline(tape.const(xs), c, kv))
        tape.forward({"c": np.zeros(kv.n_basis)})
        grads = tape.backward()
        assert_allclose(grads["c"], splines.basis_matrix(kv, xs).sum(axis=0),
                        rtol=1e-14)

    def test_spline_input_gradient(self):
        """The spline op is differentiable in x as well as the coefficients."""
        rng = np.random.default_rng(4)
        kv = splines.KnotVector(grid_size=5, order=3)
        coeffs = rng.normal(size=kv.n_basis)
        xs = rng.uniform(0.1, 0.9, size=7)
        tape = Tape()
        x = tape.leaf("x", xs.shape)
        c = tape.leaf("c", coeffs.shape)
        tape.sum(tape.spline(x, c, kv))
        assert grad_check(tape, {"x": xs, "c": coeffs}, step=1e-6) < 1e-5


class TestFourierPrimitive:
    def test_tables_match_direct_trig(self):
        """Angle addition stays within 1e-13 of cos(k h) and sin(k h) for
        every frequency up to 8 on |h| <= 50."""
        h = np.random.default_rng(21).uniform(-50.0, 50.0, size=(4000, 3))
        C, S = fourier_tables(h, 8)
        assert C.shape == S.shape == (8, 4000, 3)
        k = np.arange(1, 9, dtype=float)[:, None, None]
        assert np.abs(C - np.cos(k * h)).max() <= 1e-13
        assert np.abs(S - np.sin(k * h)).max() <= 1e-13

    def test_value_matches_direct_sum(self):
        rng = np.random.default_rng(22)
        h = rng.normal(size=(30, 3))
        cos_w = rng.normal(size=(4, 3, 5))
        sin_w = rng.normal(size=(4, 3, 5))
        tape = Tape()
        tape.fourier(tape.const(h), tape.const(cos_w), tape.const(sin_w))
        k = np.arange(1, 6, dtype=float)
        ang = h[:, :, None] * k                       # (N, n_in, grid)
        direct = (np.einsum("nik,oik->no", np.cos(ang), cos_w)
                  + np.einsum("nik,oik->no", np.sin(ang), sin_w))
        assert_allclose(tape.forward({}), direct, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_in,n_out,grid", [(8, 8, 2), (2, 8, 8), (8, 1, 8)])
    def test_gradcheck_with_leaf_input(self, n_in, n_out, grid):
        """Adjoints of input and both weight tables agree with central
        differences on the layer shapes of the Fourier presets.  Inputs keep
        every angle k h in (0, pi/2) and the output weights are positive, so
        no weight gradient is a near-cancelling sum that central differences
        cannot resolve to 1e-6."""
        rng = np.random.default_rng(23)
        tape = Tape()
        h = tape.leaf("h", (6, n_in))
        cw = tape.leaf("cw", (n_out, n_in, grid))
        sw = tape.leaf("sw", (n_out, n_in, grid))
        out = tape.fourier(h, cw, sw)
        tape.sum(tape.mul(out, tape.const(rng.uniform(0.5, 1.5, size=(6, n_out)))))
        leaves = {"h": rng.uniform(0.05, 1.5 / grid, size=(6, n_in)),
                  "cw": rng.normal(size=(n_out, n_in, grid)),
                  "sw": rng.normal(size=(n_out, n_in, grid))}
        assert grad_check(tape, leaves, step=1e-6) < 1e-6

    def test_fixed_input_tables_built_once(self, monkeypatch):
        """A constant input gets its tables on the first pass only, and no
        adjoint flows into it."""
        rng = np.random.default_rng(24)
        h = rng.normal(size=(10, 2))
        tape = Tape()
        cw = tape.leaf("cw", (3, 2, 4))
        sw = tape.leaf("sw", (3, 2, 4))
        tape.sum(tape.fourier(tape.const(h), cw, sw))
        calls = []
        real_cos = np.cos
        monkeypatch.setattr(diffengine.np, "cos",
                            lambda a, **kw: calls.append(1) or real_cos(a, **kw))
        C, S = fourier_tables(h, 4)
        calls.clear()
        for scale in (1.0, 2.0):
            w = np.full((3, 2, 4), scale)
            assert tape.forward({"cw": w, "sw": w}) == fourier_sum(C, S, w, w).sum()
            grads = tape.backward()
            assert_allclose(grads["cw"], np.broadcast_to(C.sum(axis=1).T, (3, 2, 4)),
                            rtol=1e-14)
        assert len(calls) == 1


class TestGradCheck:
    def test_polynomial_chain(self):
        """Analytic adjoints agree with central differences on a composite."""
        rng = np.random.default_rng(1)
        tape = Tape()
        x = tape.leaf("x", (6,))
        y = tape.leaf("y", (6,))
        expr = tape.mul(tape.tanh(x), tape.add(tape.sin(y), tape.pow(x, 3.0)))
        tape.sum(expr)
        leaves = {"x": rng.normal(size=6), "y": rng.normal(size=6)}
        assert grad_check(tape, leaves, step=1e-6) < 1e-5

    def test_every_unary_op(self):
        """Each unary primitive passes a finite-difference check."""
        rng = np.random.default_rng(2)
        ops = {
            "exp": lambda t, a: t.exp(a),
            "log": lambda t, a: t.log(a),
            "sin": lambda t, a: t.sin(a),
            "cos": lambda t, a: t.cos(a),
            "tanh": lambda t, a: t.tanh(a),
            "atan": lambda t, a: t.atan(a),
            "silu": lambda t, a: t.silu(a),
            "abs": lambda t, a: t.absval(a),
            "sqrt": lambda t, a: t.pow(a, 0.5),
            "recip": lambda t, a: t.pow(a, -1.0),
        }
        for name, build in ops.items():
            tape = Tape()
            x = tape.leaf("x", (5,))
            tape.sum(build(tape, x))
            xs = rng.uniform(0.3, 1.8, size=5)  # positive, away from kinks
            err = grad_check(tape, {"x": xs}, step=1e-7)
            assert err < 1e-5, f"{name} gradient off by {err}"

    def test_mean_and_reshape_ops(self):
        rng = np.random.default_rng(5)
        tape = Tape()
        x = tape.leaf("x", (12,))
        m = tape.reshape(x, (3, 4))
        tape.mean(tape.pow(tape.transpose(m), 2.0))
        assert grad_check(tape, {"x": rng.normal(size=12)}, step=1e-6) < 1e-5

    def test_mean_value_divides_by_element_count(self):
        """Mean reduces by the element count of its input, not by the size
        of the reduced scalar."""
        rng = np.random.default_rng(13)
        vals = rng.normal(size=(3, 4))
        tape = Tape()
        x = tape.leaf("x", (3, 4))
        tape.mean(x)
        assert_allclose(tape.forward({"x": vals}), vals.mean(), rtol=1e-15)
        grads = tape.backward()
        assert_allclose(grads["x"], np.full((3, 4), 1.0 / 12.0), rtol=1e-15)

    def test_matmul_gradcheck(self):
        rng = np.random.default_rng(6)
        tape = Tape()
        a = tape.leaf("a", (3, 4))
        b = tape.leaf("b", (4, 2))
        tape.sum(tape.tanh(tape.matmul(a, b)))
        leaves = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4, 2))}
        assert grad_check(tape, leaves, step=1e-6) < 1e-5


class TestDeterminism:
    def test_identical_runs_bitwise_equal(self):
        rng = np.random.default_rng(7)
        leaves = {"x": rng.normal(size=8)}

        def run():
            tape = Tape()
            x = tape.leaf("x", (8,))
            tape.sum(tape.mul(tape.silu(x), tape.cos(x)))
            val = tape.forward(leaves)
            return val, tape.backward()["x"]

        v1, g1 = run()
        v2, g2 = run()
        assert v1 == v2
        assert np.array_equal(g1, g2)
