"""Tests for primitive fitting, expression trees, and the closed-form
extraction loop."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from kanc import device, diffengine, networks, symbolic, training
from kanc.symbolic import (
    Add,
    Call,
    EdgeFit,
    LIBRARY,
    LIBRARY_BY_NAME,
    Mul,
    Num,
    Pow,
    Var,
    ablate_variable,
    edge_samples,
    extract_formula,
    fit_basic,
    fix_edge,
    iterative_sr,
    posthoc_sr,
    simplify,
    suggest,
)


def pinned_demo_network():
    """A two-input, one-output spline network with every edge pinned to a
    known primitive: x^2 on the first input, a sine on the second."""
    spec = networks.NetworkSpec("kan", (2, 1), "charge-scale", grid=4)
    params = networks.init_params(spec, seed=0, grid_size=4)
    params.layers[0].bias = np.array([0.25])
    params = fix_edge(params, (0, 0, 0), EdgeFit("x^2", 1.0, 0.0, 1.0, 0.0, 1.0))
    params = fix_edge(params, (0, 1, 0), EdgeFit("sin", 2.0, 0.5, 1.5, 0.0, 1.0))
    return spec, params


class TestLibrary:
    def test_names_and_lookup(self):
        names = [f.name for f in LIBRARY]
        assert names == ["x", "x^2", "x^3", "1/x", "1/x^2", "exp", "log",
                         "sin", "cos", "tan", "tanh", "atan", "abs", "sqrt"]
        assert all(LIBRARY_BY_NAME[n].name == n for n in names)

    def test_primitives_evaluate(self):
        xs = np.linspace(0.2, 0.9, 7)
        assert_allclose(LIBRARY_BY_NAME["x^2"](xs), xs**2, rtol=1e-15)
        assert_allclose(LIBRARY_BY_NAME["1/x"](xs), 1.0 / xs, rtol=1e-15)
        assert_allclose(LIBRARY_BY_NAME["tan"](xs), np.tan(xs), rtol=1e-15)
        assert_allclose(LIBRARY_BY_NAME["sqrt"](xs), np.sqrt(xs), rtol=1e-15)

    def test_singular_inputs_stay_quiet(self):
        """Primitives evaluate to inf/nan outside their domain without
        raising warnings; the fitter masks those candidates."""
        got = LIBRARY_BY_NAME["log"](np.array([-1.0, 0.0, 1.0]))
        assert np.isnan(got[0])
        assert got[1] == -np.inf
        assert got[2] == 0.0

    @pytest.mark.parametrize("f", LIBRARY, ids=lambda f: f.name)
    def test_tape_equals_numpy_value(self, f):
        """A primitive's tape nodes compute its numpy value bit for bit,
        and their adjoint passes a finite-difference check on (0.3, 1.2),
        where every primitive is smooth (tan's pole is at pi/2)."""
        rng = np.random.default_rng(41)
        xs = rng.uniform(0.3, 1.2, size=6)
        tape = diffengine.Tape()
        x = tape.leaf("x", xs.shape)
        body = f.build(tape, x)
        tape.sum(tape.mul(body, tape.const(rng.normal(size=6))))
        tape.forward({"x": xs})
        assert np.array_equal(tape.value(body), f.fn(xs))
        assert diffengine.grad_check(tape, {"x": xs}, step=1e-7) < 1e-5

    @pytest.mark.parametrize("name", sorted(diffengine.ELEMENTWISE))
    def test_adjoint_matches_symbolic_derivative(self, name):
        """Each table row's adjoint at g = 1 is the derivative rule that
        Call.diff applies."""
        xs = np.random.default_rng(42).uniform(0.1, 1.4, size=64)
        if name != "log":
            xs = np.concatenate([xs, -xs])
        fn, adjoint = diffengine.ELEMENTWISE[name]
        rule = Call(name, Var("u")).diff("u")
        assert_allclose(adjoint(1.0, xs, fn(xs)), rule.eval({"u": xs}),
                        rtol=1e-12, atol=0)

    def test_powers_match_their_numpy_forms(self):
        """The power rows compute ``x``, ``x**2``, ``1.0 / x`` and
        ``np.sqrt`` bit for bit, signed zeros and NaN included."""
        xs = np.concatenate([np.random.default_rng(43).uniform(-3, 3, 200),
                             [0.0, -0.0, 1e-310, -1e-310]])
        forms = {"x": lambda x: x, "x^2": lambda x: x**2,
                 "1/x": lambda x: 1.0 / x, "sqrt": np.sqrt}
        with np.errstate(all="ignore"):
            for name, form in forms.items():
                got = LIBRARY_BY_NAME[name].fn(xs)
                assert np.array_equal(got.view(np.int64),
                                      form(xs).view(np.int64)), name


class TestFitBasic:
    def test_recovers_affine_wrapped_sine(self):
        xs = np.linspace(0.0, 1.0, 200)
        ys = 2.4 * np.sin(3.0 * xs + 1.0) - 0.7
        fit = fit_basic(xs, ys, LIBRARY_BY_NAME["sin"])
        assert fit.r2 > 0.999
        assert_allclose(fit(xs), ys, atol=0.05)

    def test_constant_samples_fit_exactly(self):
        """Zero-variance targets pin c = 0 and d to the constant."""
        xs = np.linspace(0.0, 1.0, 50)
        fit = fit_basic(xs, np.full(50, 5.0), LIBRARY_BY_NAME["exp"])
        assert fit.c == 0.0
        assert fit.d == 5.0
        assert fit.r2 == 1.0

    def test_partial_domain_functions_are_usable(self):
        """A log fit survives candidates whose argument goes negative."""
        xs = np.linspace(0.0, 1.0, 150)
        ys = 0.8 * np.log(2.0 * xs + 1.5) + 0.3
        fit = fit_basic(xs, ys, LIBRARY_BY_NAME["log"])
        assert fit.r2 > 0.999
        assert_allclose(fit(xs), ys, atol=0.02)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            fit_basic(np.zeros(4), np.zeros(4), LIBRARY_BY_NAME["x"])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            fit_basic(np.zeros(10), np.zeros(9), LIBRARY_BY_NAME["x"])


def reference_scores(xs, ys, f, a_vals, b_vals):
    """R^2 of every (a, b) candidate from one unblocked pass over the whole
    (candidates, samples) matrix, in meshgrid order."""
    aa, bb = np.meshgrid(a_vals, b_vals, indexing="ij")
    aa, bb = aa.ravel(), bb.ravel()
    with np.errstate(all="ignore"):
        big = f.fn(aa[:, None] * xs[None, :] + bb[:, None])
        valid = np.all(np.isfinite(big), axis=1)
        big = np.where(valid[:, None], big, 0.0)
        centered = big - big.mean(axis=1, keepdims=True)
        yc = ys - ys.mean()
        s_ff = np.sum(centered * centered, axis=1)
        s_fy = centered @ yc
        r2 = np.where(valid & (s_ff > 0), s_fy**2 / s_ff / np.sum(yc**2), 0.0)
    return aa, bb, np.where(valid & np.isfinite(r2), r2, -np.inf)


class TestScoreGrid:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(LIBRARY), st.integers(8, 512),
           st.integers(0, 2**32 - 1), st.floats(-10.0, 10.0),
           st.floats(-10.0, 10.0), st.sampled_from([10.0, 1.0, 0.1]))
    def test_blocked_scoring_matches_one_pass(self, f, n, seed, a0, b0, half):
        """The blocked scorer picks a best candidate of the unblocked
        reference: its R^2 and the reference R^2 of the (a, b) it chose are
        both within 1e-12 of the reference best."""
        rng = np.random.default_rng(seed)
        xs = rng.uniform(-1.0, 1.0, n)
        ys = rng.normal(size=n)
        a_vals = np.linspace(a0 - half, a0 + half, symbolic.FIT_GRID_POINTS)
        b_vals = np.linspace(b0 - half, b0 + half, symbolic.FIT_GRID_POINTS)
        a, b, c, d, r2 = symbolic._score_grid(xs, ys, f, a_vals, b_vals)
        aa, bb, ref = reference_scores(xs, ys, f, a_vals, b_vals)
        best = ref.max()
        if best == -np.inf:        # every candidate dead: nothing to choose
            assert r2 == -np.inf
            return
        assert abs(r2 - best) <= 1e-12
        chosen = np.flatnonzero((aa == a) & (bb == b))
        assert chosen.size == 1
        assert abs(ref[chosen[0]] - best) <= 1e-12

    def test_no_primitive_call_exceeds_a_block(self, monkeypatch):
        """A 512-sample fit evaluates its primitive on at most SCORE_BLOCK
        candidate rows at a time, and on all 441 candidates per level."""
        shapes = []
        sin, adjoint = diffengine.ELEMENTWISE["sin"]

        def recording_sin(x):
            shapes.append(x.shape)
            return sin(x)

        monkeypatch.setitem(diffengine.ELEMENTWISE, "sin",
                            (recording_sin, adjoint))
        xs = np.linspace(-1.0, 1.0, 512)
        ys = np.sin(2.0 * xs + 0.3)
        fit_basic(xs, ys, LIBRARY_BY_NAME["sin"])
        assert max(rows for rows, _ in shapes) <= symbolic.SCORE_BLOCK
        assert {cols for _, cols in shapes} == {512}
        assert sum(rows for rows, _ in shapes) == (
            symbolic.FIT_LEVELS * symbolic.FIT_GRID_POINTS**2)


class TestSuggest:
    def test_exact_generator_ranks_first(self):
        xs = np.linspace(0.0, 1.0, 200)
        ys = np.tanh(2.0 * xs - 1.0)
        fits = suggest(xs, ys)
        assert fits[0].name == "tanh"
        assert fits[0].r2 > 1.0 - 1e-8
        assert all(fits[k].r2 >= fits[k + 1].r2 for k in range(len(fits) - 1))

    def test_constant_target_keeps_library_order(self):
        """Every primitive fits a constant perfectly, so the tie resolves
        to library order."""
        xs = np.linspace(0.0, 1.0, 64)
        fits = suggest(xs, np.zeros(64))
        assert fits[0].name == "x"
        assert all(f.r2 == 1.0 for f in fits)


class TestEdgeSamples:
    def test_first_layer_samples_are_inputs(self):
        spec = networks.NetworkSpec("kan", (2, 2, 1), "charge-scale", grid=3)
        params = networks.init_params(spec, seed=4, grid_size=3)
        x = np.random.default_rng(0).uniform(0, 1, size=(100, 2))
        samples = edge_samples(spec, params, x)
        assert set(samples) == {(0, i, j) for i in range(2) for j in range(2)} \
            | {(1, i, 0) for i in range(2)}
        edges = networks.kan_layer_outputs(params.layers[0], x)
        for i in range(2):
            for j in range(2):
                xs, ys = samples[(0, i, j)]
                assert_allclose(xs, x[:, i], rtol=0)
                assert_allclose(ys, edges[:, i, j], rtol=0)

    def test_large_batches_are_thinned(self):
        spec = networks.NetworkSpec("kan", (2, 1), "charge-scale", grid=3)
        params = networks.init_params(spec, seed=5, grid_size=3)
        x = np.random.default_rng(1).uniform(0, 1, size=(2000, 2))
        samples = edge_samples(spec, params, x)
        xs, _ = samples[(0, 0, 0)]
        assert xs.size <= symbolic.MAX_FIT_SAMPLES


class TestFixEdge:
    def test_pin_and_double_pin(self):
        spec = networks.NetworkSpec("kan", (2, 1), "charge-scale", grid=3)
        params = networks.init_params(spec, seed=6, grid_size=3)
        fit = EdgeFit("tanh", 1.0, 0.0, 2.0, 0.0, 0.99)
        pinned = fix_edge(params, (0, 1, 0), fit)
        assert (1, 0) in pinned.layers[0].fixed
        assert (1, 0) not in params.layers[0].fixed   # original untouched
        with pytest.raises(ValueError):
            fix_edge(pinned, (0, 1, 0), fit)

    def test_unknown_edge_rejected(self):
        spec = networks.NetworkSpec("kan", (2, 1), "charge-scale", grid=3)
        params = networks.init_params(spec, seed=7, grid_size=3)
        with pytest.raises(ValueError):
            fix_edge(params, (0, 5, 0), EdgeFit("x", 1, 0, 1, 0, 1.0))

    def test_pinned_edge_evaluates_its_primitive(self):
        spec = networks.NetworkSpec("kan", (1, 1), "charge-scale", grid=3)
        params = networks.init_params(spec, seed=8, grid_size=3)
        params.layers[0].bias = np.zeros(1)
        fit = EdgeFit("exp", 0.5, -1.0, 2.0, 0.25, 1.0)
        pinned = fix_edge(params, (0, 0, 0), fit)
        xs = np.linspace(0, 1, 40).reshape(-1, 1)
        got = networks.kan_forward(spec, pinned, xs)
        assert_allclose(got, 2.0 * np.exp(0.5 * xs[:, 0] - 1.0) + 0.25,
                        rtol=1e-12)


class TestExpressions:
    def test_eval_and_render(self):
        expr = Add((Mul((Num(2.0), Call("sin", Var("V_G")))), Num(0.5)))
        env = {"V_G": np.array([0.1, 0.7])}
        assert_allclose(expr.eval(env), 2.0 * np.sin(env["V_G"]) + 0.5,
                        rtol=1e-15)
        assert expr.render() == "2.0*sin(V_G) + 0.5"

    def test_rendered_text_evaluates_to_the_tree(self):
        """Constants render as the shortest text that parses back to the
        same float, so the text as written is the formula that is scored."""
        expr = Add((
            Mul((Num(-0.0026000000000000003), Pow(Var("V_D"), -2.0))),
            Mul((Num(0.1 + 0.2), Call("atan", Add((Mul((Num(1e-20),
                                                        Var("V_G"))),
                                                   Num(-7.5)))))),
            Pow(Add((Var("V_G"), Num(1.0 / 3.0))), 3.0),
            Num(-123456.78901234567)))
        env = {"V_D": np.array([0.1, 0.45, 0.82]),
               "V_G": np.array([0.0, 0.3, 0.8])}
        text = expr.render()
        got = eval(text.replace("^", "**"), {"atan": np.arctan, **env})
        assert np.array_equal(got, expr.eval(env))

    @pytest.mark.parametrize("name,exponent", [("x^3", 3.0), ("1/x^2", -2.0)])
    def test_power_is_the_fitted_primitive(self, name, exponent):
        """A formula's power evaluates bit for bit as the library primitive
        that was fitted, evaluated and constant-folded alike."""
        xs = np.random.default_rng(31).uniform(-1.4, 1.4, size=10_000)
        fn = LIBRARY_BY_NAME[name].fn
        assert np.array_equal(Pow(Var("u"), exponent).eval({"u": xs}), fn(xs))
        for x in xs[:200]:
            assert simplify(Pow(Num(float(x)), exponent)).value == fn(x)

    def test_product_of_sum_is_parenthesized(self):
        expr = Mul((Add((Var("V_D"), Num(1.0))), Var("V_G")))
        assert expr.render() == "(V_D + 1.0)*V_G"

    def test_power_rendering(self):
        assert Pow(Var("V_D"), 2.0).render() == "V_D^2"
        assert Pow(Var("V_D"), -1.0).render() == "V_D^(-1)"
        assert Pow(Var("V_D"), 0.5).render() == "V_D^(0.5)"

    def test_to_dict_round_trips_structure(self):
        expr = Add((Pow(Var("V_D"), 3.0), Num(1.0)))
        d = expr.to_dict()
        assert d["op"] == "add"
        assert d["children"][0] == {"op": "pow", "exponent": 3.0,
                                    "children": [{"op": "var", "name": "V_D"}]}

    def test_derivatives_match_finite_differences(self):
        """Symbolic differentiation agrees with central differences for a
        composite expression."""
        expr = Add((
            Mul((Num(1.5), Call("sin", Mul((Num(2.0), Var("x")))))),
            Pow(Add((Var("x"), Num(0.3))), 2.0),
            Call("tanh", Var("x")),
        ))
        dx = expr.diff("x")
        xs = np.linspace(0.1, 1.4, 9)
        h = 1e-6
        fd = (expr.eval({"x": xs + h}) - expr.eval({"x": xs - h})) / (2 * h)
        assert_allclose(dx.eval({"x": xs}), fd, rtol=1e-7)

    def test_derivative_of_other_variable_is_zero(self):
        expr = Mul((Num(3.0), Var("V_G")))
        assert expr.diff("V_D").eval({}) == 0.0

    def test_abs_derivative_is_sign(self):
        expr = Call("abs", Var("x"))
        got = expr.diff("x").eval({"x": np.array([-2.0, 3.0])})
        assert_allclose(got, [-1.0, 1.0], rtol=0)

    def test_simplify_folds_constants(self):
        assert simplify(Add((Num(2.0), Num(3.0)))).value == 5.0
        assert simplify(Mul((Num(0.0), Var("x")))) == Num(0.0)
        assert simplify(Mul((Num(1.0), Var("x")))) == Var("x")
        assert simplify(Pow(Num(2.0), 3.0)).value == 8.0
        assert simplify(Call("cos", Num(0.0))).value == 1.0


class TestExtractFormula:
    def test_tree_matches_pinned_network(self):
        """The extracted expression in raw volts reproduces the pinned
        network evaluated on normalized inputs."""
        spec, params = pinned_demo_network()
        tree, text = extract_formula(spec, params)
        rng = np.random.default_rng(2)
        v_d = rng.uniform(0, device.V_MAX, size=60)
        v_g = rng.uniform(0, device.V_MAX, size=60)
        x = np.column_stack([v_d / device.V_MAX, v_g / device.V_MAX])
        want = networks.kan_forward(spec, params, x)
        got = tree.eval({"V_D": v_d, "V_G": v_g})
        assert_allclose(got, want, atol=1e-10)
        assert "V_D" in text and "V_G" in text

    def test_tree_uses_raw_voltage_slopes(self):
        """First-layer slopes fold the normalization, so the closed form
        is a function of volts directly."""
        spec, params = pinned_demo_network()
        tree, _ = extract_formula(spec, params)
        v = np.array([0.41])
        direct = (v / device.V_MAX) ** 2 \
            + 1.5 * np.sin(2.0 * v / device.V_MAX + 0.5) + 0.25
        assert_allclose(tree.eval({"V_D": v, "V_G": v}), direct, rtol=1e-12)

    def test_unpinned_edges_are_rejected(self):
        spec = networks.NetworkSpec("kan", (2, 1), "charge-scale", grid=3)
        params = networks.init_params(spec, seed=9, grid_size=3)
        with pytest.raises(ValueError):
            extract_formula(spec, params)


class TestAblation:
    def model(self):
        spec, params = pinned_demo_network()
        return symbolic._model_from_params(spec, params, "Q_S", {})

    def test_ablated_variable_no_longer_matters(self):
        model = ablate_variable(self.model(), "V_D")
        v_g = np.linspace(0, 0.8, 11)
        a = model.eval(np.zeros(11), v_g)
        b = model.eval(np.full(11, 0.8), v_g)
        assert_allclose(a, b, rtol=0)

    def test_ablation_replaces_with_value_at_zero(self):
        base = self.model()
        model = ablate_variable(base, "V_D")
        v_g = np.linspace(0, 0.8, 11)
        want = base.eval(np.zeros(11), v_g)
        assert_allclose(model.eval(np.full(11, 0.5), v_g), want, atol=1e-12)

    def test_ablation_is_idempotent(self):
        once = ablate_variable(self.model(), "V_G")
        twice = ablate_variable(once, "V_G")
        assert once.text == twice.text
        assert once.ablated == twice.ablated

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError):
            ablate_variable(self.model(), "V_B")


class TestIterativeLoop:
    def trained_checkpoint(self, widths, target, seed=0):
        """A lightly trained spline network on the coarse dataset."""
        spec = networks.NetworkSpec("kan", widths, "charge-scale", grid=4)
        params = networks.init_params(spec, seed=seed, grid_size=4)
        ds = device.generate_dataset(50)
        params, _, _ = training.run_lbfgs_stage(spec, params, ds, target,
                                                epochs=40, lr=1.0)
        ck = networks.Checkpoint(spec, params,
                                 {"target": target, "epochs": 40, "seed": seed})
        return ck, ds

    def test_eighteen_edges_with_k3_take_six_rounds(self):
        """An 18-edge network pinned three edges at a time finishes in
        exactly six rounds."""
        ck, ds = self.trained_checkpoint((2, 6, 1), "Q_D")
        model, rounds = iterative_sr(ck, ds, k=3, retrain_epochs=0)
        assert len(rounds) == 6
        assert all(len(r["fixed"]) == 3 for r in rounds)
        assert [r["round"] for r in rounds] == [1, 2, 3, 4, 5, 6]
        n_edges = sum(l.n_in * l.n_out for l in model.params.layers)
        n_fixed = sum(len(l.fixed) for l in model.params.layers)
        assert n_fixed == n_edges == 18
        assert model.text

    def test_posthoc_equals_one_shot_pinning(self):
        """With no retraining and k covering every edge, the loop reduces
        to fitting each edge once from the same samples."""
        ck, ds = self.trained_checkpoint((2, 2, 1), "Q_S")
        model, rounds = posthoc_sr(ck, ds)
        assert len(rounds) == 1

        x_norm = device.normalize_voltages(ds.train_inputs())
        params = copy.deepcopy(ck.params)
        samples = edge_samples(ck.spec, params, x_norm)
        for edge in symbolic.edge_ids(params):
            xs, ys = samples[edge]
            params = fix_edge(params, edge, suggest(xs, ys)[0])
        _, text = extract_formula(ck.spec, params)
        assert model.text == text

    def test_retraining_rounds_are_recorded(self):
        ck, ds = self.trained_checkpoint((2, 2, 1), "Q_S")
        model, rounds = iterative_sr(ck, ds, k=2, retrain_epochs=4)
        assert len(rounds) == 3
        assert all(r["retrain_epochs"] <= 4 for r in rounds)
        assert all(not r["diverged"] for r in rounds)
        assert np.isfinite(model.mape(ds, "train"))

    def test_worst_fitting_edges_are_pinned_first(self):
        ck, ds = self.trained_checkpoint((2, 2, 1), "Q_S")
        x_norm = device.normalize_voltages(ds.train_inputs())
        samples = edge_samples(ck.spec, ck.params, x_norm)
        best = {e: suggest(*samples[e])[0].r2
                for e in symbolic.edge_ids(ck.params)}
        _, rounds = iterative_sr(ck, ds, k=1, retrain_epochs=0)
        first_edge = rounds[0]["fixed"][0][0]
        assert best[first_edge] == min(best.values())

    def test_non_spline_checkpoint_rejected(self):
        spec = networks.preset("mlp1", "Q_S")
        ck = networks.Checkpoint(spec, networks.init_params(spec, 0),
                                 {"target": "Q_S"})
        with pytest.raises(ValueError):
            iterative_sr(ck, device.generate_dataset(50), k=1)


class TestSymbolicModelMape:
    def test_perfect_constant_model(self):
        """A formula that reproduces a constant-shifted surrogate channel
        scores the same error as direct prediction."""
        spec, params = pinned_demo_network()
        model = symbolic._model_from_params(spec, params, "Q_S", {})
        ds = device.generate_dataset(50)
        got = model.mape(ds, "train")
        xy = ds.train_inputs()
        pred = model.eval(xy[:, 0], xy[:, 1])
        from kanc import evaluate
        want = evaluate.mape_charge(pred, ds.train_field("Q_S").ravel())
        assert_allclose(got, want, rtol=1e-15)
