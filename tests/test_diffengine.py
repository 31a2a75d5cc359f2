"""Tests for the reverse-mode tape engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose, assert_array_equal

from kanc import diffengine, splines
from kanc.diffengine import (EvaluationError, Tape, fourier_sum,
                             fourier_table, grad_check)


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
        tape.mul(x, tape.call(x, "sin"))
        val = tape.forward({"x": np.pi / 2})
        assert_allclose(val, np.pi / 2, rtol=1e-15)
        grads = tape.backward()
        # d/dx x sin x = sin x + x cos x = 1 at pi/2
        assert_allclose(grads["x"], 1.0, rtol=0, atol=1e-15)

    def test_vector_sum_of_sin(self):
        """Gradient of sum(sin(x)) is cos(x) elementwise."""
        tape = Tape()
        x = tape.leaf("x", (5,))
        tape.sum(tape.call(x, "sin"))
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
        tape.sum(tape.call(tape.matmul(tape.const(X), w), "tanh"))
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
        bad = tape.call(x, "log")
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
        tape.call(x, "sin")
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
            f = tape.sum(tape.call(x, "sin"))
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
        tape.call(x, "exp")
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
        tape.sum(tape.mul(tape.call(tape.const(xs), "sin"), w))
        calls = []
        real_sin, sin_adjoint = diffengine.ELEMENTWISE["sin"]
        monkeypatch.setitem(diffengine.ELEMENTWISE, "sin", (
            lambda a: calls.append(1) or real_sin(a), sin_adjoint))
        for scale in (1.0, 2.0, 3.0):
            value = tape.forward({"w": np.full(5, scale)})
            assert value == scale * real_sin(xs).sum()
            assert np.array_equal(tape.backward()["w"], real_sin(xs))
        assert len(calls) == 1


class TestSplinePrimitive:
    def test_spline_value_matches_module(self, spline_layer):
        rng = np.random.default_rng(3)
        kv = splines.KnotVector(grid_size=5, order=3)
        coeffs = rng.normal(size=kv.n_basis)
        xs = rng.uniform(0.0, 1.0, size=20)
        tape = Tape()
        c = tape.leaf("c", (1, 1, kv.n_basis))
        spline_layer(tape, tape.const(xs[:, None]), c, kv)
        val = tape.forward({"c": coeffs.reshape(1, 1, -1)})
        assert_allclose(val, splines.basis_matrix(kv, xs) @ coeffs, rtol=1e-14)

    def test_spline_coefficient_gradient(self, spline_layer):
        """d(sum spline)/dc_i is the column sum of the basis matrix."""
        kv = splines.KnotVector(grid_size=4, order=3)
        xs = np.linspace(0.1, 0.9, 15)
        tape = Tape()
        c = tape.leaf("c", (1, 1, kv.n_basis))
        tape.sum(spline_layer(tape, tape.const(xs[:, None]), c, kv))
        tape.forward({"c": np.zeros((1, 1, kv.n_basis))})
        grads = tape.backward()
        assert_allclose(grads["c"][0, 0], splines.basis_matrix(kv, xs).sum(axis=0),
                        rtol=1e-14)

    def test_spline_input_gradient(self, spline_layer):
        """The layer is differentiable in x as well as the coefficients."""
        rng = np.random.default_rng(4)
        kv = splines.KnotVector(grid_size=5, order=3)
        coeffs = rng.normal(size=(1, 1, kv.n_basis))
        xs = rng.uniform(0.1, 0.9, size=(7, 1))
        tape = Tape()
        x = tape.leaf("x", xs.shape)
        c = tape.leaf("c", coeffs.shape)
        tape.sum(spline_layer(tape, x, c, kv))
        assert grad_check(tape, {"x": xs, "c": coeffs}, step=1e-6) < 1e-5


class TestFourierPrimitive:
    def test_tables_match_direct_trig(self):
        """The Chebyshev recurrence stays within 1e-13 of cos(k h) and
        sin(k h) for every frequency up to 8 on |h| <= 50."""
        h = np.random.default_rng(21).uniform(-50.0, 50.0, size=(4000, 3))
        P = fourier_table(h, 8)
        assert P.shape == (2, 8, 3, 4000)
        k = np.arange(1, 9, dtype=float)[:, None, None]
        assert np.abs(P[0] - np.cos(k * h.T)).max() <= 1e-13
        assert np.abs(P[1] - np.sin(k * h.T)).max() <= 1e-13

    @pytest.mark.parametrize("grid", [1, 2])
    def test_first_two_frequencies_match_direct_trig(self, grid):
        """``grid = 1`` is the ``np.cos``/``np.sin`` pair alone, and
        ``grid = 2`` the recurrence's start ``2c c - 1`` and ``2c s``."""
        h = np.random.default_rng(26).uniform(-50.0, 50.0, size=(500, 2))
        P = fourier_table(h, grid)
        assert P.shape == (2, grid, 2, 500)
        assert_array_equal(P[0, 0], np.cos(h).T)
        assert_array_equal(P[1, 0], np.sin(h).T)
        if grid == 2:
            assert np.abs(P[0, 1] - np.cos(2.0 * h).T).max() <= 1e-15
            assert np.abs(P[1, 1] - np.sin(2.0 * h).T).max() <= 1e-15

    def test_feature_major_table(self):
        """``fourier_table`` holds the cos rows, then the sin rows, each
        (grid, n_in, N), in one C-contiguous buffer: ``P[0, k-1, i]`` is
        ``cos(k h_i)`` over the batch."""
        h = np.random.default_rng(20).normal(size=(50, 3))
        P = fourier_table(h, 4)
        assert P.shape == (2, 4, 3, 50) and P.flags.c_contiguous
        for k in range(1, 5):
            for i in range(3):
                assert_allclose(P[0, k - 1, i], np.cos(k * h[:, i]),
                                rtol=0, atol=1e-13)
                assert_allclose(P[1, k - 1, i], np.sin(k * h[:, i]),
                                rtol=0, atol=1e-13)

    def test_value_matches_direct_sum(self):
        rng = np.random.default_rng(22)
        h = rng.normal(size=(30, 3))
        cos_w = rng.normal(size=(4, 3, 5))
        sin_w = rng.normal(size=(4, 3, 5))
        bias = rng.normal(size=4)
        tape = Tape()
        tape.fourier(tape.const(h), tape.const(cos_w), tape.const(sin_w),
                     tape.const(bias))
        k = np.arange(1, 6, dtype=float)
        ang = h[:, :, None] * k                       # (N, n_in, grid)
        direct = (np.einsum("nik,oik->no", np.cos(ang), cos_w)
                  + np.einsum("nik,oik->no", np.sin(ang), sin_w) + bias)
        assert_allclose(tape.forward({}), direct, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_in,n_out,grid", [(8, 8, 2), (2, 8, 8), (8, 1, 8)])
    def test_gradcheck_with_leaf_input(self, n_in, n_out, grid):
        """Adjoints of input, both weight tables and the bias agree with
        central differences on the layer shapes of the Fourier presets.
        Inputs keep every angle k h in (0, pi/2) and the output weights are
        positive, so no weight gradient is a near-cancelling sum that
        central differences cannot resolve to 1e-6."""
        rng = np.random.default_rng(23)
        tape = Tape()
        h = tape.leaf("h", (6, n_in))
        cw = tape.leaf("cw", (n_out, n_in, grid))
        sw = tape.leaf("sw", (n_out, n_in, grid))
        b = tape.leaf("b", (n_out,))
        out = tape.fourier(h, cw, sw, b)
        tape.sum(tape.mul(out, tape.const(rng.uniform(0.5, 1.5, size=(6, n_out)))))
        leaves = {"h": rng.uniform(0.05, 1.5 / grid, size=(6, n_in)),
                  "cw": rng.normal(size=(n_out, n_in, grid)),
                  "sw": rng.normal(size=(n_out, n_in, grid)),
                  "b": rng.normal(size=n_out)}
        assert grad_check(tape, leaves, step=1e-6) < 1e-6

    def test_fixed_input_tables_built_once(self, monkeypatch):
        """A constant input gets its table on the first pass only, and no
        adjoint flows into it."""
        rng = np.random.default_rng(24)
        h = rng.normal(size=(10, 2))
        tape = Tape()
        cw = tape.leaf("cw", (3, 2, 4))
        sw = tape.leaf("sw", (3, 2, 4))
        b = tape.leaf("b", (3,))
        tape.sum(tape.fourier(tape.const(h), cw, sw, b))
        calls = []
        real_cos = np.cos
        monkeypatch.setattr(diffengine.np, "cos",
                            lambda a, **kw: calls.append(1) or real_cos(a, **kw))
        P = fourier_table(h, 4)
        calls.clear()
        for scale in (1.0, 2.0):
            w = np.full((3, 2, 4), scale)
            bias = np.full(3, scale)
            assert (tape.forward({"cw": w, "sw": w, "b": bias})
                    == fourier_sum(P, w, w, bias).sum())
            grads = tape.backward()
            assert_allclose(grads["cw"],
                            np.broadcast_to(P[0].sum(axis=2).T, (3, 2, 4)),
                            rtol=1e-14)
            assert_array_equal(grads["b"], np.full(3, 10.0))
        assert len(calls) == 1

    def test_live_input_table_refilled_in_place(self):
        """A node whose input depends on a leaf keeps one table buffer and
        refills it on every pass."""
        rng = np.random.default_rng(25)
        tape = Tape()
        h = tape.leaf("h", (7, 2))
        node = tape.fourier(h, tape.const(rng.normal(size=(3, 2, 4))),
                            tape.const(rng.normal(size=(3, 2, 4))),
                            tape.const(np.zeros(3)))
        tape.sum(node)
        tables = []
        for _ in range(2):
            x = rng.normal(size=(7, 2))
            tape.forward({"h": x})
            tables.append(tape._scratch[node])
            assert_array_equal(tables[-1], fourier_table(x, 4))
        assert tables[0] is tables[1]


class TestGradCheck:
    def test_polynomial_chain(self):
        """Analytic adjoints agree with central differences on a composite."""
        rng = np.random.default_rng(1)
        tape = Tape()
        x = tape.leaf("x", (6,))
        y = tape.leaf("y", (6,))
        expr = tape.mul(tape.call(x, "tanh"),
                        tape.add(tape.call(y, "sin"), tape.pow(x, 3.0)))
        tape.sum(expr)
        leaves = {"x": rng.normal(size=6), "y": rng.normal(size=6)}
        assert grad_check(tape, leaves, step=1e-6) < 1e-5

    def test_every_unary_op(self):
        """Each elementwise function and each power passes a
        finite-difference check."""
        rng = np.random.default_rng(2)
        ops = {name: lambda t, a, name=name: t.call(a, name)
               for name in diffengine.ELEMENTWISE}
        ops.update({f"pow {p}": lambda t, a, p=p: t.pow(a, p)
                    for p in (2.0, 3.0, 0.5, -1.0, -2.0)})
        for name, build in ops.items():
            tape = Tape()
            x = tape.leaf("x", (5,))
            tape.sum(build(tape, x))
            # positive, away from kinks, and for tan below its pole at pi/2
            xs = rng.uniform(0.3, 1.2 if name == "tan" else 1.8, size=5)
            err = grad_check(tape, {"x": xs}, step=1e-7)
            assert err < 1e-5, f"{name} gradient off by {err}"

    def test_unknown_function_rejected(self):
        tape = Tape()
        with pytest.raises(ValueError, match="sign"):
            tape.call(tape.leaf("x"), "sign")

    def test_mean_and_reshape_ops(self):
        rng = np.random.default_rng(5)
        tape = Tape()
        x = tape.leaf("x", (12,))
        m = tape.reshape(x, (3, 4))
        tape.mean(tape.pow(m, 2.0))
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

    def test_mse_gradcheck(self):
        rng = np.random.default_rng(14)
        data = rng.normal(size=(3, 4))
        tape = Tape()
        x = tape.leaf("x", (12,))
        tape.mse(tape.reshape(x, (3, 4)), data)
        assert_allclose(tape.forward({"x": data.ravel() + 0.5}), 0.25,
                        rtol=1e-15)
        assert grad_check(tape, {"x": rng.normal(size=12)}, step=1e-6) < 1e-5

    def test_mse_overflowing_square_raises(self):
        """A finite difference whose square overflows is caught at the
        ``mse`` node."""
        xs, data = np.array([1.0, 1e200]), np.array([0.0, -1e200])
        assert np.all(np.isfinite(xs - data))
        tape = Tape()
        tape.mse(tape.leaf("x", (2,)), data)
        with pytest.raises(EvaluationError, match="'mse'"):
            tape.forward({"x": xs})

    def test_matmul_gradcheck(self):
        rng = np.random.default_rng(6)
        tape = Tape()
        a = tape.leaf("a", (3, 4))
        b = tape.leaf("b", (4, 2))
        tape.sum(tape.call(tape.matmul(a, b), "tanh"))
        leaves = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4, 2))}
        assert grad_check(tape, leaves, step=1e-6) < 1e-5


def ulp_distance(a, b):
    """Number of doubles between ``a`` and ``b`` (0 for +0 and -0)."""
    ia, ib = (np.asarray(v, dtype=float).view(np.int64) for v in (a, b))
    low = np.int64(-2**63)
    ka, kb = (np.where(i < 0, low - i, i) for i in (ia, ib))
    return np.abs(ka - kb)


class TestSmallIntegerPower:
    """``_power`` replaces libm ``pow`` by products for the exponents 3, -2
    and -3; every other exponent stays ``**``."""

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(1, 64),
                      elements=st.floats(allow_nan=False, allow_infinity=False)),
           st.sampled_from([(3.0, 2), (-2.0, 2), (-3.0, 4)]))
    def test_matches_numpy_power_in_ulps(self, x, case):
        """Two roundings for 3 and -2, four for -3 (reciprocal, then two
        products), against a correctly rounded or near-correctly rounded
        ``pow``; overflow to inf and underflow to zero fall where np.power's
        do."""
        p, ulps = case
        with np.errstate(all="ignore"):
            got, want = diffengine._power(x, p), np.power(x, p)
        assert ulp_distance(got, want).max() <= ulps

    @pytest.mark.parametrize("p", [3.0, -2.0, -3.0])
    def test_special_values_follow_numpy(self, p):
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                      1.7976931348623157e308, -1.7976931348623157e308])
        with np.errstate(all="ignore"):
            got, want = diffengine._power(x, p), np.power(x, p)
        assert_array_equal(got, want)
        assert_array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("p, x", [
        (-2.0, 1e155),     # x*x overflows; x^-2 is a subnormal
        (-3.0, -1e103),    # x*x*x overflows; x^-3 is a subnormal
    ])
    def test_negative_powers_avoid_intermediate_overflow(self, p, x):
        want = np.power(x, p)
        assert want != 0.0 and np.isfinite(want)
        assert ulp_distance(diffengine._power(np.array([x]), p), want) <= 4

    @pytest.mark.parametrize("p", [2.0, 0.5, -1.0, 1.5])
    def test_other_exponents_keep_numpy_power(self, p):
        x = np.random.default_rng(3).uniform(-3.0, 3.0, size=50)
        with np.errstate(all="ignore"):
            assert_array_equal(diffengine._power(x, p), x ** p)

    @pytest.mark.parametrize("p", [3.0, -1.0, -2.0])
    def test_pow_gradcheck(self, p):
        """The rules for 3, -1 and -2 take their derivative powers (2, -2 and
        -3) from ``_power``."""
        rng = np.random.default_rng(17)
        xs = rng.uniform(0.5, 2.0, size=6) * np.array([1, -1, 1, -1, 1, -1])
        tape = Tape()
        x = tape.leaf("x", (6,))
        tape.sum(tape.mul(tape.pow(x, p), tape.const(rng.normal(size=6))))
        assert grad_check(tape, {"x": xs}, step=1e-6) < 1e-6


class TestDeterminism:
    def test_identical_runs_bitwise_equal(self):
        rng = np.random.default_rng(7)
        leaves = {"x": rng.normal(size=8)}

        def run():
            tape = Tape()
            x = tape.leaf("x", (8,))
            tape.sum(tape.mul(tape.call(x, "tanh"), tape.call(x, "cos")))
            val = tape.forward(leaves)
            return val, tape.backward()["x"]

        v1, g1 = run()
        v2, g2 = run()
        assert v1 == v2
        assert np.array_equal(g1, g2)
