"""Tests for grid objectives, optimizers, and the family trainers."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from kanc import device, networks, training
from kanc.diffengine import Tape


def grad_oracle(field, h, axis, order=1):
    """Independent grid-derivative reference: numpy's second-order
    accurate gradient matches the shared stencil rows exactly."""
    out = np.asarray(field, dtype=float)
    for _ in range(order):
        out = np.gradient(out, h, axis=axis, edge_order=2)
    return out


def loss_current_oracle(y, dataset):
    n = dataset.train_indices.size
    yf = np.asarray(y, dtype=float).reshape(n, n)
    i_true = dataset.train_field("I_D")
    h = dataset.step_mv / 1000.0
    i_model = np.exp(yf)
    log_true = np.log(np.clip(i_true, training.CURRENT_FLOOR, None))
    total = 100.0 * np.mean((i_model - i_true) ** 2)
    total += np.mean((yf - log_true) ** 2)
    for axis in (1, 0):
        for order in (1, 2):
            dm = grad_oracle(i_model, h, axis, order)
            dt = grad_oracle(i_true, h, axis, order)
            total += np.mean((dm - dt) ** 2)
    return float(total)


def loss_charge_oracle(y, dataset, target):
    n = dataset.train_indices.size
    yf = np.asarray(y, dtype=float).reshape(n, n)
    q_true = dataset.train_field(target)
    h = dataset.step_mv / 1000.0
    total = np.mean((yf - q_true) ** 2)
    for axis in (1, 0):
        total += np.mean((grad_oracle(yf, h, axis)
                          - grad_oracle(q_true, h, axis)) ** 2)
    return float(total)


class FakeObjective:
    """Scripted value_grad sequence for driving the optimizer loops."""

    def __init__(self, values, n=3):
        self.values = list(values)
        self.calls = 0
        self.n = n

    def value_grad(self, x):
        f = self.values[min(self.calls, len(self.values) - 1)]
        self.calls += 1
        if f is None:
            return np.inf, None
        return float(f), np.zeros(self.n)


class TestLogTargets:
    def test_zero_current_is_floored(self):
        """The zero-bias column yields a finite floor value, not -inf."""
        got = training.log_current_targets(np.array([0.0, 1e-3]))
        assert_allclose(got[0], np.log(training.CURRENT_FLOOR), rtol=1e-15)
        assert_allclose(got[1], np.log(1e-3), rtol=1e-15)
        assert np.all(np.isfinite(got))


class TestGridLosses:
    def test_perfect_charge_model_scores_zero(self):
        """A head that reproduces the data exactly has zero loss, because
        model and data derivatives use the same stencils."""
        ds = device.generate_dataset(50)
        for target in ("Q_D", "Q_S", "Q_G"):
            y = ds.train_field(target).ravel()
            assert training.loss_charge(y, ds, target) == 0.0

    def test_perfect_current_model_scores_near_zero(self):
        """Only the flooring of the zero-bias log targets keeps the
        perfect-model current loss from vanishing identically."""
        ds = device.generate_dataset(50)
        y = training.log_current_targets(ds.train_field("I_D")).ravel()
        assert training.loss_current(y, ds) < 1e-20

    def test_current_loss_matches_oracle(self):
        ds = device.generate_dataset(50)
        rng = np.random.default_rng(5)
        y = rng.normal(-10.0, 2.0, size=ds.train_count)
        assert_allclose(training.loss_current(y, ds),
                        loss_current_oracle(y, ds), rtol=1e-12)

    def test_charge_loss_matches_oracle(self):
        ds = device.generate_dataset(50)
        rng = np.random.default_rng(6)
        y = rng.normal(0.0, 10.0, size=ds.train_count)
        assert_allclose(training.loss_charge(y, ds, "Q_S"),
                        loss_charge_oracle(y, ds, "Q_S"), rtol=1e-12)


class TestTapeObjectives:
    @pytest.mark.parametrize("arch,target", [
        ("mlp1", "I_D"), ("mlp1", "Q_S"), ("kan1", "I_D"),
        ("kan1", "Q_D"), ("fkan1", "Q_G"),
    ])
    def test_tape_value_matches_numpy_loss(self, arch, target):
        """The recorded objective evaluates to the same number as the
        plain-numpy loss of the fast forward pass."""
        ds = device.generate_dataset(50)
        spec = networks.preset(arch, target)
        params = networks.init_params(spec, seed=9)
        obj = training.build_grid_objective(spec, params, ds, target)
        x0 = obj.pack(networks.leaf_values(spec, params))
        f, g = obj.value_grad(x0)
        y = networks.net_forward(
            spec, params, device.normalize_voltages(ds.train_inputs()))
        want = (training.loss_current(y, ds) if target == "I_D"
                else training.loss_charge(y, ds, target))
        assert_allclose(f, want, rtol=1e-15)
        assert g.shape == x0.shape
        assert np.all(np.isfinite(g))

    @pytest.mark.parametrize("arch,target,n_nodes", [
        ("kan1", "Q_S", 22), ("fkan1", "I_D", 31), ("mlp1", "I_D", 37),
        ("kan1", "I_D", 38),
    ])
    def test_grid_objective_node_counts(self, arch, target, n_nodes):
        """The grid loss records one ``mse`` node per squared-error term
        and each first-derivative stencil product once, on top of the
        network's forward nodes."""
        spec = networks.preset(arch, target)
        obj = training.build_grid_objective(
            spec, networks.init_params(spec, seed=1),
            device.generate_dataset(50), target)
        assert len(obj.tape.nodes) == n_nodes

    @pytest.mark.parametrize("arch,target", [
        ("fkan1", "I_D"), ("mlp1", "I_D"), ("kan1", "Q_S"), ("kan2", "Q_D"),
    ])
    def test_mse_node_matches_explicit_chain(self, arch, target, monkeypatch):
        """Each ``mse`` node gives the value and gradient, bit for bit, of
        the ``const``/``sub``/``pow``/``mean`` nodes it stands for."""
        ds = device.generate_dataset(50)
        spec = networks.preset(arch, target)
        params = networks.init_params(spec, seed=5)
        obj = training.build_grid_objective(spec, params, ds, target)
        x0 = obj.pack(networks.leaf_values(spec, params))
        x0 += np.random.default_rng(6).normal(scale=0.05, size=x0.size)
        monkeypatch.setattr(Tape, "mse", lambda tape, a, data: tape.mean(
            tape.pow(tape.sub(a, tape.const(data)), 2.0)))
        chain = training.build_grid_objective(spec, params, ds, target)
        assert len(chain.tape.nodes) > len(obj.tape.nodes)
        f, g = obj.value_grad(x0)
        f_chain, g_chain = chain.value_grad(x0)
        assert f == f_chain
        np.testing.assert_array_equal(g, g_chain)

    def test_objective_gradient_matches_finite_differences(self):
        ds = device.generate_dataset(50)
        spec = networks.preset("kan1", "Q_S")
        params = networks.init_params(spec, seed=3)
        obj = training.build_grid_objective(spec, params, ds, "Q_S")
        x0 = obj.pack(networks.leaf_values(spec, params))
        _, g = obj.value_grad(x0)
        rng = np.random.default_rng(0)
        step = 1e-6
        for idx in rng.choice(x0.size, size=8, replace=False):
            xp, xm = x0.copy(), x0.copy()
            xp[idx] += step
            xm[idx] -= step
            fd = (obj.value_grad(xp)[0] - obj.value_grad(xm)[0]) / (2 * step)
            err = abs(g[idx] - fd) / (abs(g[idx]) + abs(fd) + 1e-8)
            assert err < 1e-5

    def test_pack_unpack_round_trip(self):
        spec = networks.preset("kan1", "Q_S")
        params = networks.init_params(spec, seed=1)
        obj = training.build_grid_objective(
            spec, params, device.generate_dataset(50), "Q_S")
        vals = networks.leaf_values(spec, params)
        back = obj.unpack(obj.pack(vals))
        for name, v in vals.items():
            assert_allclose(np.asarray(back[name]), np.asarray(v), rtol=0)

    def test_overflowing_parameters_map_to_inf(self):
        """A parameter vector that overflows the forward pass reports an
        infinite loss instead of raising."""
        ds = device.generate_dataset(50)
        spec = networks.preset("kan1", "I_D")
        params = networks.init_params(spec, seed=2)
        obj = training.build_grid_objective(spec, params, ds, "I_D")
        x = np.full(obj.n_params, 1e4)
        f, g = obj.value_grad(x)
        assert f == np.inf
        assert g is None

    def test_non_finite_gradient_maps_to_inf(self):
        """An edge pinned to sqrt(x) is finite at x = 0 but its slope is
        not: the objective reports an infinite loss there, so a line search
        backs off instead of stepping to non-finite parameters."""
        spec = networks.NetworkSpec("kan", (2, 1), "charge-scale", grid=3)
        params = networks.init_params(spec, seed=0, grid_size=3)
        params.layers[0].fixed[(0, 0)] = networks.FixedEdge(
            "sqrt", 1.0, 0.0, 1.0, 0.0)
        x = np.array([[0.0, 0.5], [0.3, 0.2], [0.9, 0.7]])
        obj = training.build_mse_objective(spec, params, x, np.zeros(3))
        flat = obj.pack(networks.leaf_values(spec, params))
        assert np.isfinite(obj.tape.forward(obj.unpack(flat)))
        assert obj.value_grad(flat) == (np.inf, None)
        vals = obj.unpack(flat)
        vals["L0.fixb.0.0"] = 0.1   # sqrt(x + 0.1)
        f, g = obj.value_grad(obj.pack(vals))
        assert np.isfinite(f) and np.all(np.isfinite(g))


class TestAdam:
    def test_matches_textbook_recurrence(self):
        """Five steps agree with a direct transcription of the update."""
        rng = np.random.default_rng(12)
        x = rng.normal(size=4)
        grads = [rng.normal(size=4) for _ in range(5)]
        adam = training.Adam(4)
        got = x.copy()
        m = np.zeros(4)
        v = np.zeros(4)
        want = x.copy()
        for t, g in enumerate(grads, start=1):
            got = adam.step(got, g, 0.01)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            want = want - 0.01 * (m / (1 - 0.9**t)) / (
                np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        assert_allclose(got, want, rtol=1e-14)

    def test_weight_decay_is_coupled(self):
        """Decay folds into the gradient before the moment updates."""
        x = np.array([2.0, -3.0])
        g = np.array([0.5, 0.5])
        a1 = training.Adam(2)
        a2 = training.Adam(2)
        out1 = a1.step(x, g, 0.01, weight_decay=0.1)
        out2 = a2.step(x, g + 0.1 * x, 0.01, weight_decay=0.0)
        assert_allclose(out1, out2, rtol=0)

    def test_zero_gradient_leaves_parameters_unchanged(self):
        x = np.array([1.0, 2.0])
        assert_allclose(training.Adam(2).step(x, np.zeros(2), 0.5), x, rtol=0)

    def test_converges_on_quadratic(self):
        target = np.array([3.0, -1.0, 0.5])
        x = np.zeros(3)
        adam = training.Adam(3)
        for _ in range(2000):
            x = adam.step(x, 2 * (x - target), 0.05)
        assert_allclose(x, target, atol=1e-4)


class TestFkanSchedule:
    def test_reference_profile(self):
        """The stepped decay drops by 15 percent every 2000 epochs and
        lands near 1.5e-5 after the full reference budget."""
        assert training.fkan_lr_schedule(0) == 0.002
        assert training.fkan_lr_schedule(1999) == 0.002
        assert_allclose(training.fkan_lr_schedule(2000), 0.0017, rtol=1e-12)
        assert_allclose(training.fkan_lr_schedule(60000),
                        0.002 * 0.85**30, rtol=1e-12)
        assert training.fkan_lr_schedule(60000) < 2e-5

    def test_custom_cadence(self):
        assert_allclose(training.fkan_lr_schedule(3, cadence=1),
                        0.002 * 0.85**3, rtol=1e-12)


class TestAdamLoopPlateau:
    PLATEAU = {"threshold": 1e-3, "window": 2, "factor": 0.5, "floor": 0.3}

    def test_stalled_loss_halves_the_rate_until_the_floor(self):
        obj = FakeObjective([1.0] * 100)
        _, losses, lrs, diverged = training._adam_loop(
            obj, np.zeros(3), 100, lambda e: 1.0, 0.0, self.PLATEAU)
        assert not diverged
        assert lrs == [1.0, 1.0, 0.5, 0.5, 0.25]
        assert len(losses) == 5

    def test_improving_loss_keeps_the_rate(self):
        obj = FakeObjective([0.99**k for k in range(40)])
        _, losses, lrs, diverged = training._adam_loop(
            obj, np.zeros(3), 40, lambda e: 1.0, 0.0, self.PLATEAU)
        assert not diverged
        assert lrs == [1.0] * 40
        assert len(losses) == 40

    def test_non_finite_loss_sets_the_divergence_flag(self):
        obj = FakeObjective([1.0, 0.9, None, 0.8])
        x, losses, lrs, diverged = training._adam_loop(
            obj, np.zeros(3), 40, lambda e: 1.0, 0.0, None)
        assert diverged
        assert len(losses) == 2


class TestLbfgs:
    def test_quadratic_converges_in_few_iterations(self):
        target = np.arange(5, dtype=float)

        def vg(x):
            return float(np.sum((x - target) ** 2)), 2 * (x - target)

        x, losses, diverged = training.lbfgs_minimize(vg, np.zeros(5), 50, 1.0)
        assert not diverged
        assert len(losses) <= 50
        assert_allclose(x, target, atol=1e-7)

    def test_rosenbrock_converges(self):
        """The classic banana valley needs curvature memory and a real
        line search; 100 iterations reach the optimum."""
        def vg(x):
            a, b = 1.0, 100.0
            f = (a - x[0]) ** 2 + b * (x[1] - x[0] ** 2) ** 2
            g = np.array([
                -2 * (a - x[0]) - 4 * b * x[0] * (x[1] - x[0] ** 2),
                2 * b * (x[1] - x[0] ** 2),
            ])
            return float(f), g

        x, losses, diverged = training.lbfgs_minimize(
            vg, np.array([-1.2, 1.0]), 100, 1.0)
        assert not diverged
        assert_allclose(x, [1.0, 1.0], atol=1e-6)
        assert losses[-1] < 1e-12

    def test_losses_are_monotone_nonincreasing(self):
        def vg(x):
            return float(np.sum(x**4) + np.sum(x**2)), 4 * x**3 + 2 * x

        rng = np.random.default_rng(8)
        _, losses, _ = training.lbfgs_minimize(vg, rng.normal(size=6), 30, 1.0)
        diffs = np.diff(np.asarray(losses))
        assert np.all(diffs <= 1e-12)

    def test_non_finite_start_is_divergence(self):
        def vg(x):
            return np.inf, None

        x, losses, diverged = training.lbfgs_minimize(vg, np.ones(2), 10, 1.0)
        assert diverged
        assert losses == []
        assert_allclose(x, np.ones(2), rtol=0)

    def test_zero_gradient_stops_immediately(self):
        def vg(x):
            return 5.0, np.zeros_like(x)

        _, losses, diverged = training.lbfgs_minimize(vg, np.ones(3), 10, 1.0)
        assert not diverged
        assert len(losses) == 1

    @pytest.mark.parametrize("bounds", [None, (0.25, 0.75)])
    def test_cubic_step_survives_overflowing_slopes(self, bounds):
        """Slopes near 1e200 square past the float range; the step falls
        back to the middle of the bracket instead of raising."""
        t = training._cubic_interpolate((0.0, 1.0, None, 1e200),
                                        (1.0, 2.0, None, 1e200),
                                        bounds=bounds)
        lo, hi = bounds or (0.0, 1.0)
        assert lo <= t <= hi
        assert t == 0.5 * (lo + hi)

    def test_cubic_step_survives_silently_overflowing_product(self):
        """``g1 * g2`` overflows to -inf without raising, which made the
        cubic's minimizer inf/inf = nan; the step bisects instead."""
        t = training._cubic_interpolate((0.0, 1.0, None, 1e300),
                                        (1.0, 2.0, None, -1e300))
        assert t == 0.5


def along(fn):
    """Line objective along the one-dimensional direction ``[1]``:
    ``fn(step)`` gives (value, slope), or None for a non-finite point."""
    def obj(step):
        out = fn(step)
        return (np.inf, None) if out is None else (out[0], np.array([out[1]]))
    return obj


def scripted(points):
    """Line objective that answers its k-th probe with ``points[k]``,
    wherever that probe lands."""
    answers = iter(points)

    def obj(step):
        f, slope = next(answers)
        return f, np.array([slope])
    return obj


def bowl(t):
    """exp(t) - 2t: value 1 and slope -1 at the start, minimum at ln 2."""
    return float(np.exp(t) - 2 * t), float(np.exp(t) - 2)


class TestStrongWolfe:
    """Each way the line search can end, pinned to the exact value, step
    and evaluation count it returns."""

    @staticmethod
    def search(obj, t0, f0=1.0, slope0=-1.0):
        f, g, t, evals = training._strong_wolfe(
            obj, t0, np.array([1.0]), f0, np.array([slope0]), slope0)
        return float(f), float(t), evals

    def test_wolfe_met_on_first_probe(self):
        assert self.search(along(bowl), 0.7) == (0.6137527074704767, 0.7, 1)

    def test_armijo_failure_then_zoom(self):
        assert self.search(along(bowl), 5.0) == (
            0.6302881517085832, 0.819214840584849, 3)

    def test_positive_slope_then_zoom(self):
        assert self.search(along(bowl), 1.2) == (
            0.6137215463907053, 0.6891561054764397, 2)

    def test_non_finite_probe_is_an_overshoot(self):
        obj = along(lambda t: None if t > 3.0 else bowl(t))
        assert self.search(obj, 10.0) == (
            0.6458899528158564, 0.8673395933231385, 4)

    def test_probe_budget_exhausted(self):
        """A line that falls forever extrapolates until the probes run
        out, then returns the furthest point."""
        obj = along(lambda t: (-t, -1.0))
        assert self.search(obj, 1.0, f0=0.0) == (
            -5.978050147048716e+18, 5.978050147048716e+18, 26)

    def test_bracket_below_tolerance_returns_the_start(self):
        obj = along(lambda t: (2.0, -1.0))
        assert self.search(obj, 1e-12) == (1.0, 0.0, 1)

    def test_zoom_moves_the_far_end_to_the_near_one(self):
        """A probe that passes Armijo with its slope pointing back towards
        the low end makes the low end the new high end."""
        obj = scripted([(2.0, 5.0), (0.5, 3.0), (0.4, -0.05)])
        assert self.search(obj, 1.0) == (0.4, 0.3244014848906636, 3)

    def test_zoom_steps_away_from_the_bracket_edges(self):
        """An interpolant within a tenth of the bracket from one end is
        probed once; on the next near miss, or outside the bracket, it is
        pushed that tenth inwards."""
        obj = scripted([(1.786, -1.866), (1.594, -1.297), (1.795, 0.166),
                        (0.95, -0.309)])
        assert self.search(obj, 1.0) == (0.95, 1.643511147736594e-05, 4)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1),
           st.floats(1e-3, 1e3))
    def test_convex_quadratic_step_never_rises(self, n, seed, t0):
        """On a strictly convex quadratic along a descent direction the
        returned value never exceeds the start, and a search that ended
        before its probe budget returns a step that passes Armijo."""
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(n, n))
        a = m @ m.T + 0.1 * np.eye(n)
        b = rng.normal(size=n)
        x0 = rng.normal(size=n)

        def value_grad(x):
            return float(0.5 * x @ a @ x - b @ x), a @ x - b

        f0, g0 = value_grad(x0)
        d = -g0 + 0.5 * rng.normal(size=n) * np.linalg.norm(g0) / np.sqrt(n)
        gtd = float(g0 @ d)
        assume(gtd < -1e-12)
        f, _, t, evals = training._strong_wolfe(
            lambda step: value_grad(x0 + step * d), t0, d, f0, g0, gtd)
        assert f <= f0
        if evals < training.WOLFE_MAX_PROBES:
            assert not f > f0 + training.WOLFE_C1 * t * gtd


class TestRunLbfgsStage:
    def test_stage_reduces_grid_loss(self):
        """One optimizer leg on the coarse starting grid drives the loss
        down by orders of magnitude."""
        ds = device.generate_dataset(50)
        spec = networks.preset("kan1", "Q_S")
        params = networks.init_params(spec, seed=0, grid_size=2)
        y0 = networks.net_forward(
            spec, params, device.normalize_voltages(ds.train_inputs()))
        before = training.loss_charge(y0, ds, "Q_S")
        params, losses, diverged = training.run_lbfgs_stage(
            spec, params, ds, "Q_S", epochs=60, lr=1.0)
        assert not diverged
        y1 = networks.net_forward(
            spec, params, device.normalize_voltages(ds.train_inputs()))
        after = training.loss_charge(y1, ds, "Q_S")
        assert after < 0.01 * before
        assert_allclose(losses[-1], after, rtol=1e-12)


class TestTrainConfig:
    def test_desk_and_full_budgets(self):
        cfg = training.TrainConfig(family="mlp")
        assert cfg.resolved_epochs() == 5000
        assert training.TrainConfig(family="fkan",
                                    full_budget=True).resolved_epochs() == 60000
        assert training.TrainConfig(family="kan",
                                    epochs=7).resolved_epochs() == 7

    def test_default_rates_by_family_and_target(self):
        assert training.TrainConfig(family="mlp",
                                    target="I_D").resolved_lr() == 0.005
        assert training.TrainConfig(family="mlp").resolved_lr() == 0.01
        assert training.TrainConfig(family="kan",
                                    target="I_D").resolved_lr() == 0.1
        assert training.TrainConfig(family="kan").resolved_lr() == 1.0
        assert training.TrainConfig(family="fkan").resolved_lr() == 0.02
        assert training.TrainConfig(family="fkan",
                                    full_budget=True).resolved_lr() == 0.002

    def test_arch_defaults_to_family_one(self):
        assert training.TrainConfig(family="fkan").resolved_arch() == "fkan1"

    def test_unknown_family_and_step_rejected(self):
        with pytest.raises(ValueError):
            training.train(training.TrainConfig(family="tree"))
        with pytest.raises(ValueError):
            training.train(training.TrainConfig(family="mlp", step_mv=7))


class TestTrainers:
    def test_mlp_short_run_shapes_and_metadata(self):
        cfg = training.TrainConfig(family="mlp", target="Q_S", step_mv=50,
                                   epochs=3, seed=1)
        ck, log = training.train(cfg)
        assert ck.meta["epochs"] == 3
        assert ck.meta["target"] == "Q_S"
        assert ck.meta["seed"] == 1
        assert len(log.losses) == 3
        assert np.all(np.isfinite(log.losses))
        assert not log.diverged

    def test_training_is_deterministic(self):
        """Two identical configurations produce bitwise-equal parameters
        and loss traces."""
        cfg = training.TrainConfig(family="mlp", target="Q_D", step_mv=50,
                                   epochs=4, seed=3)
        ck1, log1 = training.train(cfg)
        ck2, log2 = training.train(cfg)
        assert log1.losses == log2.losses
        for w1, w2 in zip(ck1.params.weights, ck2.params.weights):
            assert np.array_equal(w1, w2)

    def test_fkan_rates_follow_scaled_schedule(self):
        """A 4-epoch budget compresses the thirty-step decay to a step
        every epoch."""
        cfg = training.TrainConfig(family="fkan", target="Q_S", step_mv=50,
                                   epochs=4)
        _, log = training.train(cfg)
        assert_allclose(log.lrs, [0.02 * 0.85**k for k in range(4)],
                        rtol=1e-12)

    def test_kan_zero_budget_walks_the_ladder_without_training(self):
        cfg = training.TrainConfig(family="kan", target="Q_S", step_mv=50,
                                   epochs=0)
        ck, log = training.train(cfg)
        assert log.losses == []
        assert ck.params.grid_size == 16
        assert ck.spec.grid == 16
        assert [s["grid"] for s in log.stages] == [2, 4, 8, 12, 16]
        assert "output_delta" not in log.stages[0]
        assert all("output_delta" in s for s in log.stages[1:])

    def test_kan_refinement_transfer_preserves_outputs(self):
        """Each grid stage hands the next one the same function: output
        deltas at train points stay below 1e-6 and the loss carries over."""
        cfg = training.TrainConfig(family="kan", target="Q_S", step_mv=50,
                                   epochs=150, ladder=(2, 8, 12))
        _, log = training.train(cfg)
        assert not log.diverged
        transfers = [s for s in log.stages if "output_delta" in s]
        assert len(transfers) == 2
        for s in transfers:
            assert s["output_delta"] < 1e-6
            assert_allclose(s["loss_after"], s["loss_before"], rtol=1e-6)

    def test_kan_short_ladder_improves_the_loss(self):
        cfg = training.TrainConfig(family="kan", target="Q_S", step_mv=50,
                                   epochs=20, ladder=(2, 4))
        ck, log = training.train(cfg)
        assert not log.diverged
        assert ck.spec.grid == 4
        assert len(log.stages) == 2
        assert log.losses[-1] < log.losses[0]

    def test_kan_checkpoint_round_trip(self, tmp_path):
        cfg = training.TrainConfig(family="kan", target="Q_D", step_mv=50,
                                   epochs=4, ladder=(2,))
        ck, _ = training.train(cfg)
        path = tmp_path / "ck.txt"
        networks.save_checkpoint(ck, path)
        back = networks.load_checkpoint(path)
        x = np.random.default_rng(0).uniform(0, 1, size=(20, 2))
        assert_allclose(networks.net_forward(back.spec, back.params, x),
                        networks.net_forward(ck.spec, ck.params, x), rtol=0)


class TestTrainLog:
    def test_save_format(self, tmp_path):
        log = training.TrainLog(losses=[2.0, 1.0], lrs=[0.1, 0.05])
        path = tmp_path / "log.csv"
        training.save_trainlog(log, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,loss,lr"
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == 2.0
        assert float(first[2]) == 0.1
        assert len(lines) == 3


class TestSeedSweep:
    def test_rows_in_seed_order(self):
        cfg = training.TrainConfig(family="mlp", target="Q_S", step_mv=50,
                                   epochs=2, seed=5)
        rows = training.seed_sweep(cfg, 4)
        assert [r["seed"] for r in rows] == [5, 6, 7, 8]
        assert not any(r["diverged"] for r in rows)
        assert all(np.isfinite(r["train_mape"]) for r in rows)

    def test_rows_carry_each_replica(self):
        """Each row holds the replica's checkpoint and log, which match a
        plain training run at that seed."""
        cfg = training.TrainConfig(family="mlp", target="Q_S", step_mv=50,
                                   epochs=3, seed=2)
        for row in training.seed_sweep(cfg, 2):
            ck, log = training.train(replace(cfg, seed=row["seed"]))
            assert row["log"].losses == log.losses
            assert row["checkpoint"].meta == ck.meta
            for a, b in zip(row["checkpoint"].params.weights,
                            ck.params.weights):
                assert np.array_equal(a, b)

    def test_zero_seeds_rejected(self):
        with pytest.raises(ValueError):
            training.seed_sweep(
                training.TrainConfig(family="mlp", epochs=1), 0)
