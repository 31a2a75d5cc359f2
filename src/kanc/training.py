"""Training losses and optimizers.

Current heads train on a six-term objective: squared error on the current,
on its log (the head's native scale), and on the four grid derivatives
(first and second, along each voltage axis), with the plain current term
weighted up.  Charge heads use value plus the two first derivatives.  All
derivative terms, model side and data side, go through the same
finite-difference stencils over the train sub-grid, so a head that matches
the data exactly scores exactly zero.

Dense nets and Fourier nets train with full-batch Adam; spline nets train
with an LBFGS loop (history 10, strong Wolfe line search) over a
coarse-to-fine grid ladder.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import device, evaluate
from .device import derivative_stencil, generate_dataset
from .diffengine import EvaluationError, Tape
from .networks import (
    Checkpoint,
    NetworkSpec,
    build_forward_tape,
    init_params,
    kan_forward,
    leaf_spec,
    leaf_values,
    preset,
    refine_kan,
    set_leaf_values,
)

CURRENT_FLOOR = 1e-15   # amperes; keeps log targets finite at zero drain bias
REFERENCE_FKAN_EPOCHS = 60000
REFERENCE_FKAN_CADENCE = 2000

DESK_EPOCHS = {"mlp": 5000, "kan": 1500, "fkan": 10000}
FULL_EPOCHS = {"mlp": 100000, "kan": 1500, "fkan": 60000}


# ----------------------------------------------------------------------
# losses
# ----------------------------------------------------------------------

def mse(pred, true) -> float:
    pred = np.asarray(pred, dtype=float)
    true = np.asarray(true, dtype=float)
    if pred.shape != true.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {true.shape}")
    return float(np.sum((pred - true) ** 2) / pred.size)


def log_current_targets(i_field: np.ndarray) -> np.ndarray:
    """Log targets with the zero-bias column floored to stay finite."""
    return np.log(np.clip(i_field, CURRENT_FLOOR, None))


def loss_current(y, dataset, weight: float = 100.0) -> float:
    """Six-term current objective for head outputs ``y`` (log-amperes) on
    the train sub-grid."""
    return _grid_loss_value(y, dataset, "I_D", weight)


def loss_charge(y, dataset, target: str) -> float:
    """Charge objective: value plus both first grid derivatives."""
    return _grid_loss_value(y, dataset, target, 100.0)


def _grid_loss_value(y, dataset, target, weight) -> float:
    tape = Tape()
    _grid_loss(tape, tape.const(y), dataset, target, weight)
    try:
        return float(tape.forward({}))
    except EvaluationError:
        return np.inf


# ----------------------------------------------------------------------
# tape objectives
# ----------------------------------------------------------------------

class Objective:
    """A scalar tape loss over a flat parameter vector that holds the
    ``(name, shape)`` leaves of ``leaves`` in order."""

    def __init__(self, tape: Tape, leaves: list):
        self.tape = tape
        self.names = [name for name, _ in leaves]
        self.shapes = [shape for _, shape in leaves]
        self.sizes = [int(np.prod(s)) if s else 1 for s in self.shapes]
        self.offsets = np.cumsum([0] + self.sizes)

    @property
    def n_params(self) -> int:
        return int(self.offsets[-1])

    def pack(self, vals: dict) -> np.ndarray:
        flat = np.empty(self.n_params)
        for k, name in enumerate(self.names):
            flat[self.offsets[k]:self.offsets[k + 1]] = np.asarray(
                vals[name], dtype=float
            ).ravel()
        return flat

    def unpack(self, flat: np.ndarray) -> dict:
        vals = {}
        for k, name in enumerate(self.names):
            chunk = flat[self.offsets[k]:self.offsets[k + 1]]
            vals[name] = chunk.reshape(self.shapes[k]) if self.shapes[k] else chunk[0]
        return vals

    def value_grad(self, flat: np.ndarray):
        """Loss and flat gradient; non-finite loss or gradient maps to +inf."""
        vals = self.unpack(flat)
        try:
            f = float(self.tape.forward(vals))
        except EvaluationError:
            return np.inf, None
        grads = self.tape.backward()
        g = np.empty(self.n_params)
        for k, name in enumerate(self.names):
            g[self.offsets[k]:self.offsets[k + 1]] = np.asarray(
                grads[name], dtype=float
            ).ravel()
        if not np.all(np.isfinite(g)):
            return np.inf, None
        return f, g


def _grid_loss(tape: Tape, y_flat: int, dataset, target: str,
               weight: float) -> int:
    """Append the grid objective for head outputs ``y_flat`` (an (N,) node
    over the train sub-grid, row-major in V_D) and return its scalar node:
    six squared-error terms for a current head, three for a charge head,
    each one ``mse`` node."""
    n = dataset.train_indices.size
    y = tape.reshape(y_flat, (n, n))
    d = derivative_stencil(n, dataset.step_mv / 1000.0)
    d_t = tape.const(d.T)
    d_m = tape.const(d)
    if target == "I_D":
        i_data = dataset.train_field("I_D")
        i_model = tape.call(y, "exp")
        total = tape.mul(tape.const(weight), tape.mse(i_model, i_data))
        total = tape.add(total, tape.mse(y, log_current_targets(i_data)))
        di_dvg = tape.matmul(i_model, d_t)
        di_dvd = tape.matmul(d_m, i_model)
        total = tape.add(total, tape.mse(di_dvg, i_data @ d.T))
        total = tape.add(total, tape.mse(di_dvd, d @ i_data))
        total = tape.add(total, tape.mse(
            tape.matmul(di_dvg, d_t), (i_data @ d.T) @ d.T))
        total = tape.add(total, tape.mse(
            tape.matmul(d_m, di_dvd), d @ (d @ i_data)))
    else:
        q_data = dataset.train_field(target)
        total = tape.mse(y, q_data)
        total = tape.add(total, tape.mse(tape.matmul(y, d_t), q_data @ d.T))
        total = tape.add(total, tape.mse(tape.matmul(d_m, y), d @ q_data))
    return total


def build_grid_objective(spec: NetworkSpec, params, dataset, target: str,
                         weight: float = 100.0) -> Objective:
    """The grid objective of :func:`loss_current` / :func:`loss_charge`
    around a network forward pass on the train sub-grid."""
    x_norm = device.normalize_voltages(dataset.train_inputs())
    tape = Tape()
    y_flat = build_forward_tape(tape, spec, params, x_norm)
    total = _grid_loss(tape, y_flat, dataset, target, weight)
    assert total == len(tape.nodes) - 1
    return Objective(tape, leaf_spec(spec, params))


def build_mse_objective(spec: NetworkSpec, params, x: np.ndarray,
                        y: np.ndarray) -> Objective:
    """Plain mean-squared-error objective on arbitrary sample pairs."""
    tape = Tape()
    out = build_forward_tape(tape, spec, params, np.asarray(x, dtype=float))
    tape.mse(out, np.asarray(y, dtype=float))
    return Objective(tape, leaf_spec(spec, params))


# ----------------------------------------------------------------------
# optimizers
# ----------------------------------------------------------------------

class Adam:
    """Full-batch Adam with optional L2-coupled weight decay."""

    def __init__(self, n: int, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.t = 0
        self.beta1, self.beta2, self.eps = beta1, beta2, eps

    def step(self, x, grad, lr, weight_decay=0.0):
        g = grad + weight_decay * x if weight_decay else grad
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * g
        self.v = self.beta2 * self.v + (1 - self.beta2) * g * g
        m_hat = self.m / (1 - self.beta1**self.t)
        v_hat = self.v / (1 - self.beta2**self.t)
        return x - lr * m_hat / (np.sqrt(v_hat) + self.eps)


def fkan_lr_schedule(epoch: int, lr0: float = 0.002, decay: float = 0.85,
                     cadence: int = REFERENCE_FKAN_CADENCE) -> float:
    """Stepped decay: multiply by ``decay`` every ``cadence`` epochs."""
    return lr0 * decay ** (epoch // cadence)


def _cubic_interpolate(x1, f1, g1, x2, f2, g2, bounds=None):
    """Minimizer of the cubic through two (position, value, slope) pairs,
    clipped into the bracket."""
    if bounds is not None:
        xmin_bound, xmax_bound = bounds
    else:
        xmin_bound, xmax_bound = (x1, x2) if x1 <= x2 else (x2, x1)
    d1 = g1 + g2 - 3 * (f1 - f2) / (x1 - x2)
    try:
        d2_square = d1**2 - g1 * g2
    except OverflowError:      # no finite cubic: bisect as below
        d2_square = -1.0
    # ``g1 * g2`` may also overflow to an infinity without raising; a cubic
    # with an infinite or undefined minimizer falls back to bisection too
    if 0 <= d2_square < np.inf:
        d2 = np.sqrt(d2_square)
        with np.errstate(all="ignore"):
            if x1 <= x2:
                min_pos = x2 - (x2 - x1) * ((g2 + d2 - d1) / (g2 - g1 + 2 * d2))
            else:
                min_pos = x1 - (x1 - x2) * ((g1 + d2 - d1) / (g1 - g2 + 2 * d2))
        if np.isfinite(min_pos):
            return min(max(min_pos, xmin_bound), xmax_bound)
    return (xmin_bound + xmax_bound) / 2.0


def _strong_wolfe(obj, t, d, f, g, gtd, c1=1e-4, c2=0.9,
                  tolerance_change=1e-9, max_ls=25):
    """Bracket-and-zoom line search enforcing the strong Wolfe conditions.

    ``obj(step)`` returns (value, flat gradient); a None gradient marks a
    non-finite evaluation and is treated as an overshoot.
    """
    def probe(step):
        f_new, g_new = obj(step)
        if g_new is None:
            return np.inf, None, np.inf
        return f_new, g_new, float(g_new @ d)

    d_norm = float(np.max(np.abs(d)))
    g = g.copy()
    f_new, g_new, gtd_new = probe(t)
    ls_func_evals = 1
    t_prev, f_prev, g_prev, gtd_prev = 0.0, f, g, gtd
    done = False
    ls_iter = 0
    while ls_iter < max_ls:
        if f_new > (f + c1 * t * gtd) or (ls_iter > 1 and f_new >= f_prev) \
                or not np.isfinite(f_new):
            bracket = [t_prev, t]
            bracket_f = [f_prev, f_new]
            bracket_g = [g_prev, g_new]
            bracket_gtd = [gtd_prev, gtd_new]
            break
        if abs(gtd_new) <= -c2 * gtd:
            bracket = [t]
            bracket_f = [f_new]
            bracket_g = [g_new]
            bracket_gtd = [gtd_new]
            done = True
            break
        if gtd_new >= 0:
            bracket = [t_prev, t]
            bracket_f = [f_prev, f_new]
            bracket_g = [g_prev, g_new]
            bracket_gtd = [gtd_prev, gtd_new]
            break
        min_step = t + 0.01 * (t - t_prev)
        max_step = t * 10
        tmp = t
        t = _cubic_interpolate(t_prev, f_prev, gtd_prev, t, f_new, gtd_new,
                               bounds=(min_step, max_step))
        t_prev, f_prev, g_prev, gtd_prev = tmp, f_new, g_new, gtd_new
        f_new, g_new, gtd_new = probe(t)
        ls_func_evals += 1
        ls_iter += 1
    else:
        bracket = [0.0, t]
        bracket_f = [f, f_new]
        bracket_g = [g, g_new]
        bracket_gtd = [gtd, gtd_new]

    insuf_progress = False
    low_pos, high_pos = (0, 1) if bracket_f[0] <= bracket_f[-1] else (1, 0)
    while not done and ls_iter < max_ls and len(bracket) > 1:
        if abs(bracket[1] - bracket[0]) * d_norm < tolerance_change:
            break
        t = _cubic_interpolate(bracket[0], bracket_f[0], bracket_gtd[0],
                               bracket[1], bracket_f[1], bracket_gtd[1])
        eps = 0.1 * (max(bracket) - min(bracket))
        if min(max(bracket) - t, t - min(bracket)) < eps:
            if insuf_progress or t >= max(bracket) or t <= min(bracket):
                if abs(t - max(bracket)) < abs(t - min(bracket)):
                    t = max(bracket) - eps
                else:
                    t = min(bracket) + eps
                insuf_progress = False
            else:
                insuf_progress = True
        else:
            insuf_progress = False
        f_new, g_new, gtd_new = probe(t)
        ls_func_evals += 1
        ls_iter += 1
        if f_new > (f + c1 * t * gtd) or f_new >= bracket_f[low_pos] \
                or not np.isfinite(f_new):
            bracket[high_pos] = t
            bracket_f[high_pos] = f_new
            bracket_g[high_pos] = g_new
            bracket_gtd[high_pos] = gtd_new
            low_pos, high_pos = (0, 1) if bracket_f[0] <= bracket_f[1] else (1, 0)
        else:
            if abs(gtd_new) <= -c2 * gtd:
                done = True
            elif gtd_new * (bracket[high_pos] - bracket[low_pos]) >= 0:
                bracket[high_pos] = bracket[low_pos]
                bracket_f[high_pos] = bracket_f[low_pos]
                bracket_g[high_pos] = bracket_g[low_pos]
                bracket_gtd[high_pos] = bracket_gtd[low_pos]
            bracket[low_pos] = t
            bracket_f[low_pos] = f_new
            bracket_g[low_pos] = g_new
            bracket_gtd[low_pos] = gtd_new

    if len(bracket) == 1:
        return f_new, g_new, t, ls_func_evals
    t = bracket[low_pos]
    return bracket_f[low_pos], bracket_g[low_pos], t, ls_func_evals


def lbfgs_minimize(value_grad, x0: np.ndarray, max_iter: int, lr: float,
                   history_size: int = 10):
    """LBFGS loop with two-loop recursion and strong Wolfe line search.

    Returns (x, per-iteration losses, diverged flag).  A non-finite loss at
    the current iterate stops the loop with the last finite parameters.
    """
    x = np.asarray(x0, dtype=float).copy()
    f, g = value_grad(x)
    if g is None or not np.isfinite(f):
        return x, [], True
    s_hist: list = []
    y_hist: list = []
    rho_hist: list = []
    losses = []
    diverged = False
    for it in range(max_iter):
        q = -g
        if s_hist:
            alphas = []
            for s, yv, rho in zip(reversed(s_hist), reversed(y_hist),
                                  reversed(rho_hist)):
                a = rho * float(s @ q)
                alphas.append(a)
                q = q - a * yv
            gamma = float(s_hist[-1] @ y_hist[-1]) / float(
                y_hist[-1] @ y_hist[-1])
            q = gamma * q
            for (s, yv, rho), a in zip(zip(s_hist, y_hist, rho_hist),
                                       reversed(alphas)):
                b = rho * float(yv @ q)
                q = q + s * (a - b)
        direction = q
        gtd = float(g @ direction)
        if gtd > -1e-16:
            # stale curvature made this a non-descent direction; reset
            s_hist.clear(), y_hist.clear(), rho_hist.clear()
            direction = -g
            gtd = float(g @ direction)
            if gtd > -1e-16:
                losses.append(f)
                break   # gradient is numerically zero
        if it == 0:
            t0 = lr * min(1.0, 1.0 / float(np.sum(np.abs(g))))
        else:
            t0 = lr

        def obj(step):
            return value_grad(x + step * direction)

        f_new, g_new, t, _ = _strong_wolfe(obj, t0, direction, f, g, gtd)
        if g_new is None or not np.isfinite(f_new):
            diverged = True
            losses.append(f)
            break
        step_vec = t * direction
        y_vec = g_new - g
        sy = float(step_vec @ y_vec)
        if sy > 1e-10:
            if len(s_hist) >= history_size:
                s_hist.pop(0), y_hist.pop(0), rho_hist.pop(0)
            s_hist.append(step_vec)
            y_hist.append(y_vec)
            rho_hist.append(1.0 / sy)
        x = x + step_vec
        f, g = f_new, g_new
        losses.append(f)
        if float(np.max(np.abs(g))) < 1e-13 or t == 0.0:
            break
    return x, losses, diverged


# ----------------------------------------------------------------------
# configuration and logs
# ----------------------------------------------------------------------

@dataclass
class TrainConfig:
    family: str                      # "mlp" | "kan" | "fkan"
    target: str = "Q_S"
    arch: str = ""                   # preset name, defaults to <family>1
    step_mv: int = 10
    seed: int = 0
    epochs: int | None = None        # None -> desk budget for the family
    full_budget: bool = False
    lr: float | None = None          # None -> family/target default
    loss_weight: float = 100.0
    weight_decay: float = 1e-5       # dense nets only
    ladder: tuple = (2, 4, 8, 12, 16)
    plateau_window: int = 500
    plateau_threshold: float = 1e-3
    plateau_factor: float = 0.5
    lr_floor: float = 1e-5
    lbfgs_history: int = 10

    def resolved_arch(self) -> str:
        return self.arch or f"{self.family}1"

    def resolved_epochs(self) -> int:
        if self.epochs is not None:
            return int(self.epochs)
        table = FULL_EPOCHS if self.full_budget else DESK_EPOCHS
        return table[self.family]

    def resolved_lr(self) -> float:
        if self.lr is not None:
            return float(self.lr)
        current = self.target == "I_D"
        if self.family == "mlp":
            return 0.005 if current else 0.01
        if self.family == "kan":
            return 0.1 if current else 1.0
        # compressed Fourier budgets start hotter; the stretched decay
        # profile still ends near the reference schedule's floor
        return 0.002 if self.full_budget else 0.02


@dataclass
class TrainLog:
    losses: list = field(default_factory=list)
    lrs: list = field(default_factory=list)
    stages: list = field(default_factory=list)
    wall_clock: float = 0.0
    diverged: bool = False


def save_trainlog(log: TrainLog, path) -> None:
    lines = ["epoch,loss,lr"]
    for e, (loss, lr) in enumerate(zip(log.losses, log.lrs)):
        lines.append("%d,%.17g,%.17g" % (e, loss, lr))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _checkpoint(spec, params, cfg: TrainConfig, log: TrainLog) -> Checkpoint:
    meta = {
        "seed": cfg.seed,
        "target": cfg.target,
        "step_mv": cfg.step_mv,
        "epochs": len(log.losses),
        "final_loss": float(log.losses[-1]) if log.losses else np.inf,
    }
    return Checkpoint(spec, params, meta)


# ----------------------------------------------------------------------
# family trainers
# ----------------------------------------------------------------------

def _adam_loop(objective: Objective, x0, epochs, lr_fn, weight_decay,
               plateau=None):
    """Shared Adam driver; ``lr_fn(epoch, state)`` supplies the step size."""
    x = x0
    adam = Adam(x.size)
    losses, lrs = [], []
    diverged = False
    best = np.inf
    stall = 0
    lr_scale = 1.0
    for epoch in range(epochs):
        f, g = objective.value_grad(x)
        if g is None or not np.isfinite(f):
            diverged = True
            break
        lr = lr_fn(epoch) * lr_scale
        if plateau is not None:
            if f < best * (1.0 - plateau["threshold"]):
                best = f
                stall = 0
            else:
                stall += 1
            if stall >= plateau["window"]:
                lr_scale *= plateau["factor"]
                stall = 0
                lr = lr_fn(epoch) * lr_scale
            if lr < plateau["floor"]:
                losses.append(f)
                lrs.append(lr)
                break
        losses.append(f)
        lrs.append(lr)
        x = adam.step(x, g, lr, weight_decay)
    return x, losses, lrs, diverged


def train_adam(cfg: TrainConfig, lr_fn, weight_decay: float, plateau=None):
    """Full-batch Adam on the grid objective from a fresh initialization;
    the family supplies the step size ``lr_fn(epoch)``, the weight decay
    and the plateau rule of :func:`_adam_loop`."""
    t0 = time.perf_counter()
    dataset = generate_dataset(cfg.step_mv)
    spec = preset(cfg.resolved_arch(), cfg.target)
    params = init_params(spec, cfg.seed)
    objective = build_grid_objective(spec, params, dataset, cfg.target,
                                     cfg.loss_weight)
    x0 = objective.pack(leaf_values(spec, params))
    x, losses, lrs, diverged = _adam_loop(
        objective, x0, cfg.resolved_epochs(), lr_fn, weight_decay, plateau)
    params = set_leaf_values(spec, params, objective.unpack(x))
    log = TrainLog(losses, lrs, [], time.perf_counter() - t0, diverged)
    return _checkpoint(spec, params, cfg, log), log


def train_mlp(cfg: TrainConfig):
    """Constant step size, halved on a loss plateau, with weight decay."""
    lr0 = cfg.resolved_lr()
    plateau = {"threshold": cfg.plateau_threshold, "window": cfg.plateau_window,
               "factor": cfg.plateau_factor, "floor": cfg.lr_floor}
    return train_adam(cfg, lambda e: lr0, cfg.weight_decay, plateau)


def train_fkan(cfg: TrainConfig):
    """Stepped decay (:func:`fkan_lr_schedule`), no weight decay."""
    epochs = cfg.resolved_epochs()
    if epochs == REFERENCE_FKAN_EPOCHS:
        cadence = REFERENCE_FKAN_CADENCE
    else:
        # shorter budgets keep the thirty-step decay profile
        cadence = max(1, round(epochs * REFERENCE_FKAN_CADENCE
                               / REFERENCE_FKAN_EPOCHS))
    lr0 = cfg.resolved_lr()
    return train_adam(
        cfg, lambda e: fkan_lr_schedule(e, lr0, cadence=cadence), 0.0)


def run_lbfgs_stage(spec, params, dataset, target, epochs, lr, weight=100.0,
                    history=10):
    """One LBFGS leg on the grid objective; used per ladder stage and for
    symbolic-regression retraining.  Returns (params, losses, diverged)."""
    objective = build_grid_objective(spec, params, dataset, target, weight)
    x0 = objective.pack(leaf_values(spec, params))
    x, losses, diverged = lbfgs_minimize(objective.value_grad, x0, epochs, lr,
                                         history)
    params = set_leaf_values(spec, params, objective.unpack(x))
    return params, losses, diverged


def train_kan(cfg: TrainConfig):
    t0 = time.perf_counter()
    dataset = generate_dataset(cfg.step_mv)
    base = preset(cfg.resolved_arch(), cfg.target)
    ladder = tuple(cfg.ladder)
    spec = NetworkSpec("kan", base.widths, base.conversion,
                       spline_order=base.spline_order, grid=ladder[-1])
    params = init_params(spec, cfg.seed, grid_size=ladder[0])
    per_stage = cfg.resolved_epochs() // len(ladder)
    lr = cfg.resolved_lr()
    x_norm = device.normalize_voltages(dataset.train_inputs())
    loss_fn = (lambda y: loss_current(y, dataset, cfg.loss_weight)) \
        if cfg.target == "I_D" else (lambda y: loss_charge(y, dataset, cfg.target))
    log = TrainLog()
    for grid in ladder:
        stage = {"grid": grid, "epoch": len(log.losses)}
        if grid != params.grid_size:
            out_before = kan_forward(spec, params, x_norm)
            loss_before = loss_fn(out_before)
            params = refine_kan(params, grid)
            out_after = kan_forward(spec, params, x_norm)
            stage["output_delta"] = float(np.max(np.abs(out_after - out_before)))
            stage["loss_before"] = loss_before
            stage["loss_after"] = loss_fn(out_after)
        log.stages.append(stage)
        if per_stage > 0:
            params, losses, diverged = run_lbfgs_stage(
                spec, params, dataset, cfg.target, per_stage, lr,
                cfg.loss_weight, cfg.lbfgs_history)
            log.losses.extend(losses)
            log.lrs.extend([lr] * len(losses))
            if diverged:
                log.diverged = True
                break
    log.wall_clock = time.perf_counter() - t0
    # a diverged stage ends the ladder early, on that stage's grid
    spec = replace(spec, grid=params.grid_size)
    return _checkpoint(spec, params, cfg, log), log


TRAINERS = {"mlp": train_mlp, "kan": train_kan, "fkan": train_fkan}


def train(cfg: TrainConfig):
    """Dispatch to the family trainer; returns (Checkpoint, TrainLog)."""
    if cfg.family not in TRAINERS:
        raise ValueError(f"unknown family {cfg.family!r}")
    if cfg.step_mv not in device.TRAIN_STEPS_MV:
        raise ValueError(f"unsupported step {cfg.step_mv}")
    return TRAINERS[cfg.family](cfg)


# ----------------------------------------------------------------------
# seed sweeps
# ----------------------------------------------------------------------

def seed_sweep(cfg: TrainConfig, n_seeds: int) -> list:
    """Train ``n_seeds`` replicas differing only in seed; one row per
    replica with its seed, divergence flag, errors and final loss (``None``
    for a diverged run), ``checkpoint`` and ``log``."""
    if n_seeds < 1:
        raise ValueError("need at least one seed")
    dataset = generate_dataset(cfg.step_mv)
    rows = []
    for offset in range(n_seeds):
        run_cfg = replace(cfg, seed=cfg.seed + offset)
        ck, log = train(run_cfg)
        row = {"seed": run_cfg.seed, "diverged": log.diverged,
               "train_mape": None, "test_mape": None, "final_loss": None,
               "checkpoint": ck, "log": log}
        if not log.diverged:
            errs = evaluate.split_errors(ck, dataset, cfg.target)
            row.update(train_mape=errs["train"], test_mape=errs["test"],
                       final_loss=ck.meta["final_loss"])
        rows.append(row)
    return rows
