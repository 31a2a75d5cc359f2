"""Tests for network containers, forwards, counting, and checkpoints."""

import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from kanc import networks, splines
from kanc.diffengine import Tape, grad_check
from kanc.networks import (
    Checkpoint,
    CheckpointError,
    FixedEdge,
    NetworkSpec,
    build_forward_tape,
    fkan_forward,
    init_params,
    kan_forward,
    leaf_values,
    load_checkpoint,
    mlp_forward,
    net_forward,
    param_count,
    preset,
    refine_kan,
    save_checkpoint,
)


def oracle_mlp(params, x):
    """Nested-loop MLP forward, one scalar at a time."""
    h = list(x)
    last = len(params.weights) - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        nxt = []
        for j in range(w.shape[1]):
            s = b[j]
            for i in range(w.shape[0]):
                s += h[i] * w[i, j]
            nxt.append(math.tanh(s) if l < last else s)
        h = nxt
    return h[0]


def oracle_silu(x):
    return x / (1.0 + math.exp(-x))


def oracle_kan(params, x):
    """Nested-loop spline-network forward using the naive basis recursion."""
    from test_splines import naive_basis

    h = list(x)
    for layer in params.layers:
        kv = layer.knots
        nxt = []
        for j in range(layer.n_out):
            s = layer.bias[j]
            for i in range(layer.n_in):
                xi = h[i]
                # clamp into the domain cells like the vectorized code
                cell = np.searchsorted(kv.knots, xi, side="right") - 1
                cell = min(max(cell, kv.order), kv.grid_size + kv.order - 1)
                spline_part = 0.0
                for m in range(kv.n_basis):
                    # only evaluate near the support to keep recursion cheap
                    if cell - kv.order <= m <= cell:
                        spline_part += layer.coeffs[i, j, m] * _poly_basis(
                            kv, m, xi
                        )
                s += layer.w_b[i, j] * oracle_silu(xi) + layer.w_s[i, j] * spline_part
            nxt.append(s)
        h = nxt
    return h[0]


def _poly_basis(kv, m, x):
    """Naive basis with the clamped-cell polynomial extension."""
    from test_splines import naive_basis

    lo, hi = kv.knots[kv.order], kv.knots[kv.grid_size + kv.order]
    if lo <= x < hi:
        return naive_basis(kv.knots, m, kv.order, x)
    # outside the domain: evaluate the boundary cell's polynomial by
    # sampling it inside and extrapolating with a Lagrange fit
    cell = kv.order if x < lo else kv.grid_size + kv.order - 1
    a, b = kv.knots[cell], kv.knots[cell + 1]
    ts = np.linspace(a + 1e-9, b - 1e-9, kv.order + 1)
    vals = [naive_basis(kv.knots, m, kv.order, t) for t in ts]
    poly = np.polynomial.polynomial.polyfit(ts, vals, kv.order)
    return float(np.polynomial.polynomial.polyval(x, poly))


def oracle_fkan(params, x):
    """Nested-loop Fourier-network forward."""
    h = list(x)
    for layer in params.layers:
        nxt = []
        for o in range(layer.bias.size):
            s = layer.bias[o]
            for i in range(len(h)):
                for g in range(layer.grid):
                    k = g + 1
                    s += layer.cos_coef[o, i, g] * math.cos(k * h[i])
                    s += layer.sin_coef[o, i, g] * math.sin(k * h[i])
            nxt.append(s)
        h = nxt
    return h[0]


@st.composite
def any_network(draw, pins=True):
    """A small network of any trainable family.  Spline networks get a
    random spline order, grids refined onto non-uniform knots and, with
    ``pins``, a random set of pinned edges."""
    kind = draw(st.sampled_from(["mlp", "kan", "fkan"]))
    n_layers = draw(st.integers(1, 3))
    widths = ((2,) + tuple(draw(st.integers(1, 3)) for _ in range(n_layers - 1))
              + (1,))
    conversion = draw(st.sampled_from(networks.CONVERSIONS))
    seed = draw(st.integers(0, 2**16))
    if kind == "mlp":
        spec = NetworkSpec("mlp", widths, conversion)
        return spec, init_params(spec, seed)
    if kind == "fkan":
        grids = tuple(draw(st.integers(1, 4)) for _ in range(n_layers))
        spec = NetworkSpec("fkan", widths, conversion, fkan_grids=grids)
        return spec, init_params(spec, seed)
    coarse = draw(st.integers(1, 6))
    grid = draw(st.integers(coarse, 12))
    spec = NetworkSpec("kan", widths, conversion,
                       spline_order=draw(st.integers(1, 3)), grid=grid)
    params = refine_kan(init_params(spec, seed, grid_size=coarse), grid)
    edges = [(l, i, j) for l, layer in enumerate(params.layers)
             for i in range(layer.n_in) for j in range(layer.n_out)]
    finite = st.floats(-2.0, 2.0, allow_nan=False)
    pinned = draw(st.lists(st.sampled_from(edges), unique=True)) if pins else []
    for l, i, j in pinned:
        params.layers[l].fixed[(i, j)] = FixedEdge(
            draw(st.sampled_from(sorted(networks.LIBRARY_BY_NAME))),
            draw(finite), draw(finite), draw(finite), draw(finite))
    return spec, params


class TestParamCount:
    def test_published_dense_and_fourier_counts(self):
        assert param_count(preset("mlp1", "I_D")) == 337
        assert param_count(preset("mlp2", "I_D")) == 609
        assert param_count(preset("fkan1", "I_D")) == 393
        assert param_count(preset("fkan2", "I_D")) == 657

    def test_spline_counts_match_own_convention(self):
        """(grid + order + 2) numbers per edge plus one bias per node."""
        spec = preset("kan1", "I_D")           # widths (2, 3, 1, 1)
        per_edge = 16 + 3 + 2
        expected = (2 * 3 + 3 * 1 + 1 * 1) * per_edge + (3 + 1 + 1)
        assert param_count(spec) == expected == 215
        spec_q = preset("kan1", "Q_S")          # widths (2, 3, 1)
        assert param_count(spec_q) == (6 + 3) * per_edge + 4 == 193

    def test_count_matches_actual_leaf_sizes(self):
        for name in ("mlp1", "mlp2", "kan1", "kan2", "fkan1", "fkan2"):
            spec = preset(name, "Q_D")
            params = init_params(spec, seed=1)
            vals = leaf_values(spec, params)
            total = sum(np.asarray(v).size for v in vals.values())
            assert total == param_count(spec), name

    def test_oracle_has_no_parameters(self):
        assert param_count(preset("oracle", "I_D")) == 0

    @settings(max_examples=200, deadline=None)
    @given(any_network(pins=False))
    def test_count_is_the_leaf_size_of_any_spec(self, net):
        spec, _ = net
        vals = leaf_values(spec, init_params(spec, seed=0))
        assert param_count(spec) == sum(np.size(v) for v in vals.values())


class TestSpecValidation:
    def test_rejects_unknown_kind_and_conversion(self):
        with pytest.raises(ValueError):
            NetworkSpec("rbf", (2, 1), "charge-scale")
        with pytest.raises(ValueError):
            NetworkSpec("mlp", (2, 1), "linear")

    def test_fkan_needs_grid_per_layer(self):
        with pytest.raises(ValueError):
            NetworkSpec("fkan", (2, 8, 1), "charge-scale", fkan_grids=(8,))

    def test_kart_shape(self):
        """A [n, 2n+1, 1] network has n(2n+1) inner and 2n+1 outer edges."""
        n = 2
        spec = NetworkSpec("kan", (n, 2 * n + 1, 1), "charge-scale")
        params = init_params(spec, seed=0)
        assert params.layers[0].coeffs.shape[:2] == (n, 2 * n + 1)
        assert params.layers[1].coeffs.shape[:2] == (2 * n + 1, 1)


class TestForwardOracles:
    N_POINTS = 1000

    def test_mlp_matches_nested_loops(self):
        rng = np.random.default_rng(21)
        spec = preset("mlp1", "I_D")
        params = init_params(spec, seed=3)
        xs = rng.uniform(0, 1, size=(self.N_POINTS, 2))
        fast = mlp_forward(spec, params, xs)
        slow = np.array([oracle_mlp(params, x) for x in xs])
        assert np.max(np.abs(fast - slow)) < 1e-12

    def test_kan_matches_nested_loops(self):
        rng = np.random.default_rng(22)
        spec = NetworkSpec("kan", (2, 3, 1), "charge-scale", grid=4)
        params = init_params(spec, seed=4, grid_size=4)
        xs = rng.uniform(0, 1, size=(self.N_POINTS, 2))
        fast = kan_forward(spec, params, xs)
        slow = np.array([oracle_kan(params, x) for x in xs])
        assert np.max(np.abs(fast - slow)) < 1e-12

    def test_fkan_matches_nested_loops(self):
        rng = np.random.default_rng(23)
        spec = preset("fkan1", "Q_D")
        params = init_params(spec, seed=5)
        xs = rng.uniform(0, 1, size=(self.N_POINTS, 2))
        fast = fkan_forward(spec, params, xs)
        slow = np.array([oracle_fkan(params, x) for x in xs])
        assert np.max(np.abs(fast - slow)) < 1e-12

    def test_single_point_returns_float(self):
        spec = preset("mlp1", "I_D")
        params = init_params(spec, seed=0)
        out = mlp_forward(spec, params, np.array([0.5, 0.5]))
        assert isinstance(out, float)

    def test_single_edge_kan_is_one_activation(self):
        """A [1, 1] spline network with zero bias is exactly its edge curve."""
        spec = NetworkSpec("kan", (1, 1), "charge-scale", grid=5)
        params = init_params(spec, seed=6, grid_size=5)
        layer = params.layers[0]
        act = splines.SplineActivation(layer.knots, layer.coeffs[0, 0],
                                       layer.w_b[0, 0], layer.w_s[0, 0])
        xs = np.linspace(0, 1, 50)[:, None]
        assert_allclose(kan_forward(spec, params, xs),
                        splines.spline_eval(act, xs[:, 0]), rtol=0, atol=1e-14)


class TestTapeBuilders:
    @pytest.mark.parametrize("name", ["mlp1", "kan1", "fkan1"])
    def test_tape_equals_fast_forward(self, name):
        rng = np.random.default_rng(31)
        spec = preset(name, "Q_S")
        params = init_params(spec, seed=7, grid_size=4 if name == "kan1" else None)
        if name == "kan1":
            spec = NetworkSpec("kan", spec.widths, spec.conversion, grid=4)
        xs = rng.uniform(0, 1, size=(40, 2))
        tape = Tape()
        out_idx = build_forward_tape(tape, spec, params, xs)
        tape.sum(out_idx)  # make final node scalar for backward tests
        tape.forward(leaf_values(spec, params))
        fast = {
            "mlp1": mlp_forward, "kan1": kan_forward, "fkan1": fkan_forward
        }[name](spec, params, xs)
        assert_allclose(tape.value(out_idx), fast, rtol=0, atol=1e-12)

    def test_fkan_tape_is_one_fourier_node_per_layer(self):
        spec = preset("fkan1", "I_D")
        tape = Tape()
        build_forward_tape(tape, spec, init_params(spec, seed=3),
                           np.random.default_rng(38).uniform(0, 1, size=(20, 2)))
        ops = [node.op for node in tape.nodes]
        assert ops.count("fourier") == 2
        assert "sin" not in ops and "cos" not in ops
        assert "add" not in ops        # the bias is inside the op

    @pytest.mark.parametrize("name", ["fkan1", "fkan2"])
    def test_fkan_trig_calls_per_pass(self, name, monkeypatch):
        """Each forward pass takes one np.cos/np.sin pair per layer whose
        input depends on the weights; layer 0 reads the constant grid and
        takes its pair on the first pass only.  Backward takes none."""
        spec = preset(name, "I_D")
        params = init_params(spec, seed=4)
        tape = Tape()
        out = build_forward_tape(tape, spec, params,
                                 np.random.default_rng(39).uniform(0, 1, size=(30, 2)))
        tape.sum(out)
        calls = {"sin": 0, "cos": 0}
        for fn in calls:
            real = getattr(np, fn)

            def counted(*args, _fn=fn, _real=real, **kwargs):
                calls[_fn] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(networks.np, fn, counted)
        n_layers = len(params.layers)
        for first in (True, False, False):
            calls.update(sin=0, cos=0)
            tape.forward(leaf_values(spec, params))
            tape.backward()
            expected = n_layers if first else n_layers - 1
            assert calls == {"sin": expected, "cos": expected}

    @pytest.mark.parametrize("name", ["kan1", "kan2"])
    def test_spline_kernel_calls_per_pass(self, name, monkeypatch):
        """A value-and-gradient pass builds no dense basis matrix and runs
        the local spline kernel once per input column of each hidden
        layer; the layer-0 columns read the constant grid and are
        evaluated on the first pass only."""
        from kanc import device, training

        spec = preset(name, "Q_S")
        params = init_params(spec, seed=5)
        objective = training.build_grid_objective(
            spec, params, device.generate_dataset(50), "Q_S")
        x = objective.pack(leaf_values(spec, params))

        def dense(*args, **kwargs):
            raise AssertionError("dense basis matrix built")

        monkeypatch.setattr(splines, "basis_matrix", dense)
        monkeypatch.setattr(splines, "basis_deriv_matrix", dense)
        calls = []
        real = splines._local_basis
        monkeypatch.setattr(splines, "_local_basis",
                            lambda kv, xv: calls.append(xv.shape) or real(kv, xv))
        hidden = sum(layer.n_in for layer in params.layers[1:])
        for first in (True, False, False):
            calls.clear()
            objective.value_grad(x)
            assert len(calls) == hidden + (params.layers[0].n_in if first else 0)

    def test_tape_gradients_all_families(self):
        rng = np.random.default_rng(32)
        for name in ("mlp1", "kan1", "fkan1"):
            spec = preset(name, "Q_S")
            if name == "kan1":
                spec = NetworkSpec("kan", spec.widths, spec.conversion, grid=3)
            params = init_params(spec, seed=8,
                                 grid_size=3 if name == "kan1" else None)
            xs = rng.uniform(0, 1, size=(5, 2))
            tape = Tape()
            out = build_forward_tape(tape, spec, params, xs)
            tape.sum(tape.pow(out, 2.0))
            err = grad_check(tape, leaf_values(spec, params), step=1e-6)
            assert err < 1e-5, f"{name}: {err}"

    @pytest.mark.parametrize("name,target,n_nodes", [("kan1", "Q_S", 12),
                                                      ("kan2", "Q_D", 17)])
    def test_kan_tape_is_one_node_per_layer(self, name, target, n_nodes):
        """An unpinned spline network of L layers records 5L + 2 nodes: the
        input grid, four leaves and one ``kan_layer`` per layer, and the
        final reshape."""
        spec = preset(name, target)
        tape = Tape()
        build_forward_tape(tape, spec, init_params(spec, seed=3),
                           np.random.default_rng(40).uniform(0, 1, size=(20, 2)))
        ops = [node.op for node in tape.nodes]
        assert len(ops) == n_nodes == 5 * spec.n_layers + 2
        assert ops.count("leaf") == 4 * spec.n_layers
        assert ops.count("kan_layer") == spec.n_layers
        assert ops.count("const") == 1 and ops[-1] == "reshape"
        assert sorted(tape.leaf_names) == sorted(
            f"L{l}.{key}" for l in range(spec.n_layers)
            for key in ("coeffs", "w_b", "w_s", "bias"))

    def test_pinned_edges_in_every_layer(self):
        """Pinned edges in layer 0 and in a hidden layer, two of them on one
        input column: the tape matches the numpy forward, its gradients
        match central differences, and the pinned edges' spline entries get
        zero gradient."""
        spec = NetworkSpec("kan", (2, 3, 3, 1), "charge-scale", grid=3)
        params = init_params(spec, seed=17, grid_size=3)
        params.layers[0].fixed[(0, 1)] = FixedEdge("sin", 2.0, 0.5, 1.5, -0.2)
        params.layers[1].fixed[(2, 0)] = FixedEdge("tanh", 1.5, -0.3, 0.8, 0.1)
        params.layers[1].fixed[(2, 2)] = FixedEdge("x^2", 0.7, 0.2, -1.1, 0.3)
        xs = np.random.default_rng(41).uniform(0, 1, size=(5, 2))
        tape = Tape()
        out = build_forward_tape(tape, spec, params, xs)
        tape.sum(tape.pow(out, 2.0))
        vals = leaf_values(spec, params)
        tape.forward(vals)
        assert_allclose(tape.value(out), kan_forward(spec, params, xs),
                        rtol=0, atol=1e-12)
        grads = tape.backward()
        for l, layer in enumerate(params.layers):
            for (i, j) in layer.fixed:
                assert not grads[f"L{l}.coeffs"][i, j].any()
                assert grads[f"L{l}.w_b"][i, j] == grads[f"L{l}.w_s"][i, j] == 0.0
        assert grad_check(tape, vals, step=1e-6) < 1e-5

    def test_fixed_edge_forward_and_tape_agree(self):
        spec = NetworkSpec("kan", (2, 2, 1), "charge-scale", grid=3)
        params = init_params(spec, seed=9, grid_size=3)
        params.layers[0].fixed[(0, 1)] = FixedEdge("sin", 2.0, 0.5, 1.5, -0.2)
        xs = np.random.default_rng(33).uniform(0, 1, size=(30, 2))
        fast = kan_forward(spec, params, xs)
        tape = Tape()
        out = build_forward_tape(tape, spec, params, xs)
        tape.forward(leaf_values(spec, params))
        assert_allclose(tape.value(out), fast, rtol=0, atol=1e-12)


class TestRefinement:
    def test_refine_preserves_network_output(self):
        """Grid refinement moves coefficients, not the function."""
        spec = NetworkSpec("kan", (2, 3, 1), "charge-scale", grid=2)
        params = init_params(spec, seed=10, grid_size=2)
        xs = np.random.default_rng(34).uniform(0, 1, size=(200, 2))
        before = kan_forward(spec, params, xs)
        fine = refine_kan(params, 4)
        after = kan_forward(spec, fine, xs)
        assert np.max(np.abs(after - before)) < 1e-8
        assert fine.grid_size == 4

    def test_non_nested_refine_preserves_network_output(self):
        """An 8 -> 12 step inserts knots, so the network output survives
        even where hidden activations leave the spline domain."""
        spec = NetworkSpec("kan", (2, 3, 1), "charge-scale", grid=8)
        params = init_params(spec, seed=15, grid_size=8)
        for layer in params.layers:
            layer.coeffs *= 40.0   # exaggerate the curves
        xs = np.random.default_rng(38).uniform(0, 1, size=(200, 2))
        before = kan_forward(spec, params, xs)
        fine = refine_kan(params, 12)
        after = kan_forward(spec, fine, xs)
        assert np.max(np.abs(after - before)) < 1e-7
        assert fine.grid_size == 12
        assert fine.layers[0].knots.interior is not None


class TestCheckpointIO:
    @pytest.mark.parametrize("name", ["mlp1", "kan2", "fkan2"])
    def test_round_trip_bit_exact(self, name, tmp_path):
        spec = preset(name, "Q_G")
        params = init_params(spec, seed=13)
        ck = Checkpoint(spec, params, {"seed": 13, "epochs": 0,
                                       "final_loss": 0.125, "target": "Q_G"})
        path = tmp_path / "ck.txt"
        save_checkpoint(ck, path)
        back = load_checkpoint(path)
        assert back.spec == spec
        assert back.meta["seed"] == 13
        assert back.meta["final_loss"] == 0.125
        for key, val in leaf_values(spec, params).items():
            assert np.array_equal(np.asarray(val),
                                  np.asarray(leaf_values(back.spec, back.params)[key])), key
        xs = np.random.default_rng(37).uniform(0, 1, size=(20, 2))
        fwd = {"mlp1": mlp_forward, "kan2": kan_forward, "fkan2": fkan_forward}
        assert np.array_equal(fwd[name](spec, params, xs),
                              fwd[name](back.spec, back.params, xs))

    def test_numpy_scalar_meta_round_trips(self, tmp_path):
        """Numpy scalars in meta are written as the Python values they
        hold, so the reader takes them back."""
        spec = preset("mlp1", "Q_G")
        meta = {"final_loss": np.float64(0.5), "seed": np.int64(7),
                "epochs": 3}
        path = tmp_path / "ck.txt"
        save_checkpoint(Checkpoint(spec, init_params(spec, seed=1), meta), path)
        assert "meta final_loss 0.5\n" in path.read_text()
        back = load_checkpoint(path)
        assert back.meta == {"final_loss": 0.5, "seed": 7, "epochs": 3}
        assert type(back.meta["final_loss"]) is float
        assert type(back.meta["seed"]) is int

    def test_fixed_edges_survive_round_trip(self, tmp_path):
        spec = NetworkSpec("kan", (2, 2, 1), "charge-scale", grid=3)
        params = init_params(spec, seed=14, grid_size=3)
        params.layers[1].fixed[(1, 0)] = FixedEdge("tanh", 1.25, -0.5, 3.0, 0.75)
        path = tmp_path / "ck.txt"
        save_checkpoint(Checkpoint(spec, params, {}), path)
        back = load_checkpoint(path)
        assert back.params.layers[1].fixed[(1, 0)] == FixedEdge(
            "tanh", 1.25, -0.5, 3.0, 0.75
        )

    def test_non_uniform_knots_survive_round_trip(self, tmp_path):
        """A mid-ladder network with inserted knots reloads bit-exactly."""
        spec = NetworkSpec("kan", (2, 2, 1), "charge-scale", grid=12)
        params = refine_kan(init_params(spec, seed=16, grid_size=8), 12)
        assert params.layers[0].knots.interior is not None
        path = tmp_path / "ck.txt"
        save_checkpoint(Checkpoint(spec, params, {"target": "Q_S"}), path)
        back = load_checkpoint(path)
        assert back.params.layers[0].knots == params.layers[0].knots
        xs = np.random.default_rng(39).uniform(-0.2, 1.2, size=(50, 2))
        assert np.array_equal(kan_forward(spec, params, xs),
                              kan_forward(back.spec, back.params, xs))

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("kanc-v9\nend\n")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_meta_round_trips(self, value, tmp_path):
        """The writer stores a missing final loss as ``inf``; the reader
        takes back every non-finite float it writes."""
        ck = Checkpoint(preset("oracle", "Q_S"), None,
                        {"final_loss": value, "target": "Q_S"})
        path = tmp_path / "ck.txt"
        save_checkpoint(ck, path)
        got = load_checkpoint(path).meta["final_loss"]
        assert (math.isnan(got) if math.isnan(value) else got == value)

    @pytest.mark.parametrize("line,name,n_lines", [
        ("kind mlp", "kind", 1),
        ("conversion charge-scale", "conversion", 1),
        ("widths 2 16 16 1", "widths", 1),
        ("array L1.W 16 16", "L1.W", 2),      # header plus values line
    ])
    def test_missing_entry_is_named(self, line, name, n_lines, tmp_path):
        spec = preset("mlp1", "Q_S")
        path = tmp_path / "ck.txt"
        save_checkpoint(Checkpoint(spec, init_params(spec, 0), {}), path)
        lines = path.read_text().split("\n")
        at = lines.index(line)
        del lines[at:at + n_lines]
        path.write_text("\n".join(lines))
        with pytest.raises(CheckpointError, match=name):
            load_checkpoint(path)

    @pytest.mark.parametrize("row", ["fixed 0 1 0 sinh", "fixed 0 2 0 sin",
                                     "fixed 3 0 0 sin"])
    def test_bad_pinned_edge_rejected(self, row, tmp_path):
        """An unknown primitive or an edge outside the network fails at
        load time, not at the first forward pass."""
        spec = NetworkSpec("kan", (2, 1), "charge-scale", grid=3)
        params = init_params(spec, seed=0, grid_size=3)
        params.layers[0].fixed[(1, 0)] = FixedEdge("sin", 1.0, 0.0, 1.0, 0.0)
        path = tmp_path / "ck.txt"
        save_checkpoint(Checkpoint(spec, params, {}), path)
        text = path.read_text()
        path.write_text(text.replace("fixed 0 1 0 sin", row))
        with pytest.raises(CheckpointError, match="pinned edge"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_array_rejected(self, bad, tmp_path):
        spec = NetworkSpec("kan", (2, 1), "charge-scale", grid=3)
        path = tmp_path / "ck.txt"
        save_checkpoint(Checkpoint(spec, init_params(spec, 0, grid_size=3),
                                   {}), path)
        lines = path.read_text().split("\n")
        at = lines.index("array L0.coeffs 2 1 6") + 1
        values = lines[at].split()
        values[3] = bad
        lines[at] = " ".join(values)
        path.write_text("\n".join(lines))
        with pytest.raises(CheckpointError, match="L0.coeffs"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_pinned_edge_rejected(self, bad, tmp_path):
        spec = NetworkSpec("kan", (2, 1), "charge-scale", grid=3)
        params = init_params(spec, seed=0, grid_size=3)
        params.layers[0].fixed[(1, 0)] = FixedEdge("sin", 1.0, 0.0, 1.0, 0.0)
        path = tmp_path / "ck.txt"
        save_checkpoint(Checkpoint(spec, params, {}), path)
        text = path.read_text()
        path.write_text(text.replace("fixed 0 1 0 sin 1.0 0.0 1.0 0.0",
                                     f"fixed 0 1 0 sin 1.0 {bad} 1.0 0.0"))
        with pytest.raises(CheckpointError, match="pinned edge"):
            load_checkpoint(path)

    def test_dense_activation_other_than_tanh_rejected(self, tmp_path):
        spec = preset("mlp1", "Q_S")
        path = tmp_path / "ck.txt"
        save_checkpoint(Checkpoint(spec, init_params(spec, 0), {}), path)
        text = path.read_text()
        assert "\nactivation tanh\n" in text
        path.write_text(text.replace("activation tanh", "activation relu"))
        with pytest.raises(CheckpointError, match="relu"):
            load_checkpoint(path)

    @pytest.mark.parametrize("target", ["Q_X", "I_D", None])
    def test_target_must_fit_the_conversion(self, target, tmp_path):
        """A target that is not a field, or whose head conversion is not
        the header's, is rejected at load."""
        spec = preset("mlp1", "Q_S")
        path = tmp_path / "ck.txt"
        save_checkpoint(Checkpoint(spec, init_params(spec, 0),
                                   {"target": target}), path)
        with pytest.raises(CheckpointError, match=(
                f"meta target {target!r} is not a charge-scale field")):
            load_checkpoint(path)

    @pytest.mark.parametrize("line,what", [
        ("fixed 0 0 0 tanh 2.0 0.0 1.0 0.0", "pinned edge (0, 0, 0)"),
        ("meta seed 99", "meta key 'seed'"),
        ("array L0.bias 3\n7.0 7.0 7.0", "array 'L0.bias'"),
        ("grid 5", "header key 'grid'"),
    ])
    def test_repeated_entry_rejected(self, line, what, tmp_path):
        """A second copy of an entry is an error, not an override."""
        spec = preset("kan1", "Q_S")
        params = init_params(spec, seed=0)
        params.layers[0].fixed[(0, 0)] = FixedEdge("sin", 1.0, 0.0, 1.0, 0.0)
        path = tmp_path / "ck.txt"
        save_checkpoint(Checkpoint(spec, params, {"seed": 3}), path)
        text = path.read_text()
        assert text.endswith("\nend\n")
        path.write_text(text[:-len("end\n")] + line + "\nend\n")
        with pytest.raises(CheckpointError,
                           match=f"checkpoint repeats the {re.escape(what)}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("line,edited", [
        ("kind kan", "kind kan mlp"),
        ("conversion charge-scale", "conversion charge-scale exp-current"),
        ("spline_order 3", "spline_order 3 7"),
        ("grid 16", "grid 16 4"),
        ("fixed 0 0 0 sin 1.0 0.0 1.0 0.0", "fixed 0 0 0 sin 1.0 0.0 1.0 0.0 9.0"),
        ("fixed 0 0 0 sin 1.0 0.0 1.0 0.0", "fixed 0 0 0 sin 1.0 0.0 1.0"),
    ])
    def test_token_count_checked(self, line, edited, tmp_path):
        """A single-valued header line or a ``fixed`` line with a token too
        many or too few is an error, not half read."""
        spec = preset("kan1", "Q_S")
        params = init_params(spec, seed=0)
        params.layers[0].fixed[(0, 0)] = FixedEdge("sin", 1.0, 0.0, 1.0, 0.0)
        path = tmp_path / "ck.txt"
        save_checkpoint(Checkpoint(spec, params, {"seed": 3}), path)
        lines = path.read_text().splitlines()
        assert line in lines
        lines[lines.index(line)] = edited
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="tokens"):
            load_checkpoint(path)

    def test_pinned_edges_load_and_run_without_symbolic(self, tmp_path):
        """The primitive library lives beside the pinned edge: loading a
        checkpoint with pinned edges, its numpy forward and its tape do not
        import the symbolic-regression module."""
        spec = preset("kan2", "Q_D")
        params = init_params(spec, seed=0)
        for (l, i, j), name in (((0, 0, 0), "sqrt"), ((1, 2, 1), "tan")):
            params.layers[l].fixed[(i, j)] = FixedEdge(name, 0.5, 0.25, 1.0, 0.0)
        path = tmp_path / "ck.txt"
        save_checkpoint(Checkpoint(spec, params, {"target": "Q_D"}), path)
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from kanc import networks\n"
            "from kanc.diffengine import Tape\n"
            f"ck = networks.load_checkpoint({str(path)!r})\n"
            "x = np.linspace(0.0, 1.0, 8).reshape(4, 2)\n"
            "networks.net_forward(ck.spec, ck.params, x)\n"
            "networks.build_forward_tape(Tape(), ck.spec, ck.params, x)\n"
            "assert 'kanc.symbolic' not in sys.modules\n"
        )
        src = str(Path(networks.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_oracle_checkpoint_round_trip(self, tmp_path):
        spec = preset("oracle", "I_D")
        ck = Checkpoint(spec, None, {"target": "I_D"})
        path = tmp_path / "oracle.txt"
        save_checkpoint(ck, path)
        back = load_checkpoint(path)
        assert back.spec.kind == "oracle"
        assert back.meta["target"] == "I_D"


def _saved_lines(spec, params, tmp) -> list:
    path = os.path.join(tmp, "ck.txt")
    target = "I_D" if spec.conversion == "exp-current" else "Q_S"
    save_checkpoint(Checkpoint(spec, params, {"seed": 3, "target": target}),
                    path)
    with open(path) as fh:
        return fh.read().splitlines()


class TestCheckpointProperties:
    @settings(max_examples=120, deadline=None)
    @given(any_network())
    def test_round_trip_is_bitwise(self, net):
        """Every leaf and the forward pass come back bit for bit."""
        spec, params = net
        with tempfile.TemporaryDirectory() as tmp:
            _saved_lines(spec, params, tmp)
            back = load_checkpoint(os.path.join(tmp, "ck.txt"))
        assert back.spec == spec
        before, after = leaf_values(spec, params), leaf_values(spec, back.params)
        assert list(before) == list(after)
        for name, value in before.items():
            assert np.array_equal(value, after[name]), name
        xs = np.random.default_rng(42).uniform(-0.2, 1.2, size=(30, 2))
        with np.errstate(all="ignore"):
            assert np.array_equal(net_forward(spec, params, xs),
                                  net_forward(spec, back.params, xs),
                                  equal_nan=True)

    @settings(max_examples=300, deadline=None)
    @given(any_network(), st.sampled_from(["drop", "duplicate", "truncate",
                                           "dimension", "append"]), st.data())
    def test_fuzzed_file_raises_only_checkpoint_error(self, net, edit, data):
        """A line dropped or truncated loads or raises CheckpointError; a
        changed dimension, a duplicated line other than ``end`` or a token
        appended to a single-valued header line or a ``fixed`` line always
        raises it."""
        spec, params = net
        with tempfile.TemporaryDirectory() as tmp:
            lines = _saved_lines(spec, params, tmp)
            at = data.draw(st.integers(0, len(lines) - 1))
            changed = False
            if edit == "drop":
                del lines[at]
            elif edit == "duplicate":
                # every entry is read once; only the end line may repeat
                changed = lines[at] != "end"
                lines.insert(at, lines[at])
            elif edit == "truncate":
                lines[at] = lines[at][:data.draw(st.integers(0, len(lines[at])))]
            elif edit == "append":
                single = [k for k, ln in enumerate(lines) if ln.split()[0] in (
                    "kind", "conversion", "activation", "spline_order",
                    "grid", "fixed")]
                at = data.draw(st.sampled_from(single))
                lines[at] += " " + data.draw(st.sampled_from(
                    ["mlp", "4", "9.0", "tanh"]))
                changed = True
            else:
                sized = [k for k, ln in enumerate(lines) if ln.split()[0] in (
                    "array", "widths", "grid", "grids", "spline_order")]
                at = data.draw(st.sampled_from(sized))
                tok = lines[at].split()
                pos = data.draw(st.integers(2 if tok[0] == "array" else 1,
                                            len(tok) - 1))
                new = str(data.draw(st.integers(0, 40)))
                changed = new != tok[pos]
                tok[pos] = new
                lines[at] = " ".join(tok)
            path = os.path.join(tmp, "ck.txt")
            with open(path, "w") as fh:
                fh.write("\n".join(lines) + "\n")
            if changed:
                with pytest.raises(CheckpointError):
                    load_checkpoint(path)
            else:
                try:
                    load_checkpoint(path)
                except CheckpointError:
                    pass
