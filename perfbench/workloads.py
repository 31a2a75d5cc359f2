"""The benchmark's three workloads and the checks on their outputs.

A workload has ``setup(seed, j, workdir)``, run and timed ``setup_samples``
times per run, and ``rep(states, k, workdir)``, one timed repetition that
gets every setup's result and returns an :class:`Outcome`.  Repetition
``k`` of a run with seed ``s`` trains with ``TrainConfig.seed = s * 1000 +
k``: repetitions differ in seed so a run's median averages over
initialisations, and runs with different seeds share none.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from kanc import cli, device, evaluate, networks, training

SEEDS_PER_RUN = 1000

# Run lengths: shortened desk budgets, so a run holds several repetitions.
FKAN_EPOCHS = 150        # decay cadence 5 keeps the 30-step schedule
LADDER_EPOCHS = 300      # 60 LBFGS iterations per stage of 2-4-8-12-16
SR_TRAIN_EPOCHS = 600    # setup checkpoint; iterative retrains 60 per round

TAPE_VS_NUMPY_RTOL = 1e-8
MAPE_RTOL = 1e-9


@dataclass
class Outcome:
    result_mape: float
    median_ceiling: float = math.inf   # the run's median result_mape must beat it
    checks: list = field(default_factory=list)    # (name, ok, detail)
    digests: dict = field(default_factory=dict)   # artifact -> sha256
    seed: int = 0

    def check(self, name: str, ok, detail="") -> None:
        self.checks.append((name, bool(ok), str(detail)))

    @property
    def failed(self) -> list:
        return [c for c in self.checks if not c[1]]


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def rep_seed(seed: int, k: int) -> int:
    return seed * SEEDS_PER_RUN + k % SEEDS_PER_RUN


def error_ratio(pred, true, target: str) -> float:
    """Test-split error ratio sum|pred - true| / sum|true|; charge targets
    skip points with |true| below 0.01, as ``kanc.evaluate`` does.
    Restated here so the checks do not rest on the package's metric."""
    pred, true = np.ravel(pred), np.ravel(true)
    if target.startswith("Q"):
        keep = np.abs(true) >= 0.01
        pred, true = pred[keep], true[keep]
    return float(np.sum(np.abs(pred - true)) / np.sum(np.abs(true)))


def fit_ceilings(train_xy, train_y, test_xy, test_y, target: str) -> tuple:
    """Accuracy ceilings ``(constant, affine)``: the test error ratios of
    the least-squares fits ``a`` and ``a + b V_D + c V_G`` to the train
    split.  Every model must beat the constant; on a short budget a single
    seed may still end worse than the plane, so only the median over a
    run's seeds must beat the affine fit."""
    train_xy, test_xy = np.asarray(train_xy, float), np.asarray(test_xy, float)
    out = []
    for cols in (0, 2):   # constant, then affine
        fit = np.column_stack([np.ones(len(train_xy)), train_xy[:, :cols]])
        score = np.column_stack([np.ones(len(test_xy)), test_xy[:, :cols]])
        coef, *_ = np.linalg.lstsq(fit, np.ravel(train_y), rcond=None)
        out.append(error_ratio(score @ coef, test_y, target))
    return tuple(out)


def _check_losses(out: Outcome, losses) -> None:
    losses = np.asarray(losses, dtype=float)
    out.check("losses finite", losses.size and np.all(np.isfinite(losses)),
              f"{losses.size} losses")
    if losses.size:
        out.check("final loss below initial", losses[-1] < losses[0],
                  f"{losses[0]:.6g} -> {losses[-1]:.6g}")


# ----------------------------------------------------------------------
# training workloads: library calls, as a script would make them
# ----------------------------------------------------------------------

class TrainWorkload:
    """One family trainer on the 10 mV grid (6,889 train points)."""

    setup_samples = 21

    def __init__(self, name, family, target, epochs):
        self.name, self.family, self.target = name, family, target
        self.epochs = epochs

    def config(self, seed: int) -> training.TrainConfig:
        return training.TrainConfig(family=self.family, target=self.target,
                                    step_mv=10, seed=seed, epochs=self.epochs)

    def setup(self, seed: int, j: int, workdir) -> dict:
        """Scoring dataset, plus one objective evaluation to warm numpy."""
        cfg = self.config(rep_seed(seed, j))
        dataset = device.generate_dataset(cfg.step_mv)
        spec = networks.preset(cfg.resolved_arch(), self.target)
        params = networks.init_params(spec, cfg.seed)
        obj = training.build_grid_objective(spec, params, dataset, self.target)
        f, _ = obj.value_grad(obj.pack(networks.leaf_values(spec, params)))
        if not math.isfinite(f):
            raise RuntimeError(f"warm-up objective is not finite: {f}")
        ceilings = fit_ceilings(dataset.train_inputs(),
                                dataset.train_field(self.target),
                                dataset.test_inputs(),
                                dataset.test_values(self.target), self.target)
        return {"dataset": dataset, "run_seed": seed, "ceilings": ceilings}

    def rep(self, states, k: int, workdir) -> Outcome:
        dataset = states[0]["dataset"]
        constant, affine = states[0]["ceilings"]
        cfg = self.config(rep_seed(states[0]["run_seed"], k))
        ck, log = training.train(cfg)
        path = os.path.join(workdir, "checkpoint.txt")
        networks.save_checkpoint(ck, path)

        errs = evaluate.split_errors(ck, dataset, self.target)
        out = Outcome(result_mape=errs["test"], median_ceiling=affine,
                      seed=cfg.seed)
        out.digests["checkpoint"] = sha256(path)
        out.check("not diverged", not log.diverged)
        _check_losses(out, log.losses)
        out.check("test mape under constant-fit ceiling",
                  math.isfinite(errs["test"]) and errs["test"] < constant,
                  f"{errs['test']:.6g} vs {constant:.6g}")

        # the tape objective and the plain-numpy loss agree at the result
        spec, params = ck.spec, ck.params
        obj = training.build_grid_objective(spec, params, dataset, self.target)
        f_tape, _ = obj.value_grad(obj.pack(networks.leaf_values(spec, params)))
        y = networks.net_forward(spec, params, device.normalize_voltages(
            dataset.train_inputs()))
        f_np = (training.loss_current(y, dataset) if self.target == "I_D"
                else training.loss_charge(y, dataset, self.target))
        out.check("tape loss matches numpy loss",
                  abs(f_tape - f_np) <= TAPE_VS_NUMPY_RTOL * abs(f_np),
                  f"{f_tape:.17g} vs {f_np:.17g}")

        back = networks.load_checkpoint(path)
        x = device.normalize_voltages(dataset.test_inputs())
        out.check("checkpoint round trip",
                  np.array_equal(networks.net_forward(back.spec, back.params, x),
                                 networks.net_forward(spec, params, x)))
        return out


# ----------------------------------------------------------------------
# symbolic regression through the command line, in process
# ----------------------------------------------------------------------

SR_STEP = "20"


def _kanc(*argv) -> int:
    return cli.main([str(a) for a in argv])


def formula_values(node: dict, env: dict) -> np.ndarray:
    """Evaluate an exported ``formula.json`` tree with numpy alone, so the
    check does not rely on the package's own evaluator."""
    op = node["op"]
    if op == "num":
        return np.float64(node["value"])
    if op == "var":
        return env[node["name"]]
    kids = [formula_values(c, env) for c in node.get("children", ())]
    with np.errstate(all="ignore"):
        if op == "add":
            return sum(kids[1:], kids[0])
        if op == "mul":
            out = kids[0]
            for kid in kids[1:]:
                out = out * kid
            return out
        if op == "pow":
            return kids[0] ** float(node["exponent"])
        if op == "call":
            fn = {"exp": np.exp, "log": np.log, "sin": np.sin, "cos": np.cos,
                  "tan": np.tan, "tanh": np.tanh, "atan": np.arctan,
                  "abs": np.abs, "sign": np.sign}[node["fn"]]
            return fn(kids[0])
    raise ValueError(f"unknown formula node {op!r}")


def _master_grid() -> dict:
    mv = np.arange(0, int(round(device.V_MAX * 1000)) + 1, device.MASTER_STEP_MV)
    vd, vg = np.meshgrid(mv / 1000.0, mv / 1000.0, indexing="ij")
    return {"V_D": vd, "V_G": vg}


def _split_rows(csv_path, target: str) -> dict:
    """``{split: {"V_D", "V_G", target}}`` columns of a gen-data CSV."""
    splits = {}
    with open(csv_path, newline="") as fh:
        for row in csv.DictReader(fh):
            cols = splits.setdefault(row["split"], {"V_D": [], "V_G": [], target: []})
            for key in cols:
                cols[key].append(float(row[key]))
    return {name: {key: np.asarray(vals) for key, vals in cols.items()}
            for name, cols in splits.items()}


class SymbolicCliWorkload:
    """kan2 Q_D checkpoint at 20 mV, then the commands a user runs on it."""

    name = "sr_cli_20mv"
    target = "Q_D"
    setup_samples = 3

    def setup(self, seed: int, j: int, workdir) -> dict:
        """``kanc train`` for checkpoint ``j``; repetitions cycle through the
        checkpoints."""
        ck_seed = rep_seed(seed, j)
        out_dir = os.path.join(workdir, f"train{ck_seed}")
        code = _kanc("train", "--family", "kan", "--arch", "kan2",
                     "--target", self.target, "--step-mv", SR_STEP,
                     "--seed", ck_seed, "--epochs", SR_TRAIN_EPOCHS,
                     "--out-dir", out_dir)
        if code != 0:
            raise RuntimeError(f"kanc train exited {code}")
        with open(os.path.join(out_dir, "trainlog.csv")) as fh:
            losses = [float(r["loss"]) for r in csv.DictReader(fh)]
        probe = Outcome(result_mape=0.0)
        _check_losses(probe, losses)
        if probe.failed:
            raise RuntimeError(f"setup training failed: {probe.failed}")
        return {"seed": ck_seed,
                "checkpoint": os.path.join(out_dir, "checkpoint.txt")}

    def rep(self, states, k: int, workdir) -> Outcome:
        state = states[k % len(states)]
        ck = state["checkpoint"]
        data = os.path.join(workdir, "grid.csv")
        codes = {
            "gen-data": _kanc("gen-data", "--step", SR_STEP, "--out", data),
            "eval": _kanc("eval", "--checkpoint", ck, "--data", data,
                          "--out-dir", os.path.join(workdir, "eval")),
            "posthoc": _kanc("symbolic", "--checkpoint", ck, "--mode", "posthoc",
                             "--out-dir", os.path.join(workdir, "posthoc")),
            "iterative": _kanc("symbolic", "--checkpoint", ck, "--mode",
                               "iterative", "--k", "3",
                               "--out-dir", os.path.join(workdir, "iterative")),
        }
        out = Outcome(result_mape=math.inf, seed=state["seed"])
        for cmd, code in codes.items():
            out.check(f"kanc {cmd} exit 0", code == 0, f"exit {code}")
        if any(codes.values()):
            return out

        rows = _split_rows(data, self.target)
        test = rows["test"]
        constant, affine = fit_ceilings(
            np.column_stack([rows["train"]["V_D"], rows["train"]["V_G"]]),
            rows["train"][self.target],
            np.column_stack([test["V_D"], test["V_G"]]), test[self.target],
            self.target)
        with open(os.path.join(workdir, "eval", "summary.csv")) as fh:
            ck_mape = float(next(csv.DictReader(fh))["test_mape"])
        out.check("checkpoint test mape under constant-fit ceiling",
                  ck_mape < constant, f"{ck_mape:.6g} vs {constant:.6g}")

        grid = _master_grid()
        out.digests["checkpoint"] = sha256(ck)
        for mode in ("posthoc", "iterative"):
            out.digests[f"formula_{mode}"] = sha256(
                os.path.join(workdir, mode, "formula.txt"))
            with open(os.path.join(workdir, mode, "formula.json")) as fh:
                blob = json.load(fh)
            on_grid = np.broadcast_to(formula_values(blob["tree"], grid),
                                      grid["V_D"].shape)
            bad = int(np.sum(~np.isfinite(on_grid)))
            out.check(f"{mode} formula finite on 5 mV master grid", bad == 0,
                      f"{bad} non-finite points")
            mape = error_ratio(np.broadcast_to(formula_values(blob["tree"], test),
                                               test["V_D"].shape),
                               test[self.target], self.target)
            out.check(f"{mode} formula test mape matches its report",
                      abs(mape - blob["test_mape"]) <= MAPE_RTOL * blob["test_mape"],
                      f"{mape:.17g} vs {blob['test_mape']:.17g}")
            if mode == "iterative":
                out.result_mape, out.median_ceiling = mape, affine
                out.check("formula test mape under constant-fit ceiling",
                          mape < constant, f"{mape:.6g} vs {constant:.6g}")
        return out


WORKLOADS = {
    "fkan_adam_10mv": TrainWorkload("fkan_adam_10mv", "fkan", "I_D", FKAN_EPOCHS),
    "kan_ladder_10mv": TrainWorkload("kan_ladder_10mv", "kan", "Q_S",
                                     LADDER_EPOCHS),
    "sr_cli_20mv": SymbolicCliWorkload(),
}
