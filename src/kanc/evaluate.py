"""Error metrics, derivative sweeps, and evaluation reports."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import device, networks

CHARGE_FLOOR = 0.01   # scaled charge units below which points are excluded
SWEEP_VDS = (0.4, 0.8)
SWEEP_RESOLUTION = 0.001


class UndefinedMetricError(ValueError):
    """Raised when an error ratio has a zero denominator."""


def mape(pred, true) -> float:
    """Ratio form of the mean absolute percentage error:
    sum |pred - true| / sum |true|."""
    pred = np.asarray(pred, dtype=float).ravel()
    true = np.asarray(true, dtype=float).ravel()
    if pred.shape != true.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {true.shape}")
    denom = np.sum(np.abs(true))
    if denom == 0.0:
        raise UndefinedMetricError("reference values are identically zero")
    return float(np.sum(np.abs(pred - true)) / denom)


def mape_charge(pred, true, floor: float = CHARGE_FLOOR) -> float:
    """Charge-target error ratio that ignores near-zero reference points
    (|true| below ``floor`` in scaled units)."""
    pred = np.asarray(pred, dtype=float).ravel()
    true = np.asarray(true, dtype=float).ravel()
    keep = np.abs(true) >= floor
    if not np.any(keep):
        raise UndefinedMetricError("no reference charge exceeds the floor")
    return mape(pred[keep], true[keep])


def target_mape(pred, true, target: str) -> float:
    return mape_charge(pred, true) if target.startswith("Q") else mape(pred, true)


# ----------------------------------------------------------------------
# model evaluation in physical units
# ----------------------------------------------------------------------

def predict(model, v_d, v_g) -> np.ndarray:
    """Output of a checkpoint or a symbolic model (anything with ``spec``
    and ``eval(v_d, v_g)``) for raw voltage arrays, in the target's working
    units (amperes for current heads, scaled charge numbers for charge
    heads)."""
    v_d = np.asarray(v_d, dtype=float)
    v_g = np.asarray(v_g, dtype=float)
    if model.spec.kind == "oracle":
        fields = device.surrogate_fields(v_d, v_g)
        return fields[model.target]
    if isinstance(model, networks.Checkpoint):
        x = np.column_stack([
            device.normalize_voltages(v_d).ravel(),
            device.normalize_voltages(v_g).ravel(),
        ])
        y = networks.net_forward(model.spec, model.params, x)
        y = np.asarray(y).reshape(v_d.shape)
    else:
        y = model.eval(v_d, v_g)
    if model.spec.conversion == "exp-current":
        return np.exp(y)
    return y


def split_mape(model, dataset: device.VoltageGridDataset, target: str,
               split: str = "train") -> float:
    """Error ratio of ``model`` (see :func:`predict`) on one split of the
    dataset, ``"train"`` or ``"test"``."""
    if split == "train":
        xy, true = dataset.train_inputs(), dataset.train_field(target).ravel()
    else:
        xy, true = dataset.test_inputs(), dataset.test_values(target)
    return target_mape(predict(model, xy[:, 0], xy[:, 1]), true, target)


def split_errors(ck: networks.Checkpoint, dataset: device.VoltageGridDataset,
                 target: str) -> dict:
    """Train and test error ratios for a checkpoint against a dataset."""
    return {"train": split_mape(ck, dataset, target),
            "test": (split_mape(ck, dataset, target, "test")
                     if dataset.test_count else None)}


# ----------------------------------------------------------------------
# derivative sweeps and waviness
# ----------------------------------------------------------------------

@dataclass
class SweepCurve:
    v_d: float
    v_g: np.ndarray
    first: np.ndarray     # d(pred)/dV_G along the sweep
    second: np.ndarray    # d2(pred)/dV_G2


def derivative_sweep(ck: networks.Checkpoint, v_d: float) -> SweepCurve:
    """First and second derivatives of the prediction along a dense gate
    sweep at fixed drain bias, by the shared finite-difference stencils."""
    n = int(round(device.V_MAX / SWEEP_RESOLUTION)) + 1
    v_g = np.linspace(0.0, device.V_MAX, n)
    pred = predict(ck, np.full(n, float(v_d)), v_g)
    d = device.derivative_stencil(n, v_g[1] - v_g[0])
    first = d @ pred
    second = d @ first
    return SweepCurve(float(v_d), v_g, first, second)


def waviness(curve) -> float:
    """Excess total variation over the minimum needed for the curve's range.

    A monotone curve or one interior extremum scores 0; each additional
    oscillation adds its swing twice.
    """
    y = np.asarray(curve, dtype=float).ravel()
    if y.size < 3:
        raise ValueError("waviness needs at least 3 samples")
    total = float(np.sum(np.abs(np.diff(y))))
    span = float(y.max() - y.min())
    return max(0.0, total - 2.0 * span)


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------

@dataclass
class EvalReport:
    target: str
    step_mv: int
    seed: int
    train_mape: float
    test_mape: float | None
    sweeps: dict = field(default_factory=dict)      # v_d -> SweepCurve
    waviness: dict = field(default_factory=dict)    # v_d -> float


def evaluate_checkpoint(ck: networks.Checkpoint,
                        dataset: device.VoltageGridDataset) -> EvalReport:
    target = ck.target
    errs = split_errors(ck, dataset, target)
    sweeps, wav = {}, {}
    for vd in SWEEP_VDS:
        curve = derivative_sweep(ck, vd)
        sweeps[vd] = curve
        wav[vd] = waviness(curve.second)
    return EvalReport(
        target=target, step_mv=dataset.step_mv,
        seed=int(ck.meta.get("seed", 0)),
        train_mape=errs["train"], test_mape=errs["test"],
        sweeps=sweeps, waviness=wav,
    )


def csv_field(x) -> str:
    """A number as CSV text that parses back to the same float; None is
    an empty field."""
    return "" if x is None else "%.17g" % x


def write_csv(path, header: str, rows: list) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join([header] + rows) + "\n")


def write_sweep(path, curve: SweepCurve) -> None:
    """One ``V_G,first,second`` row per gate voltage of the sweep."""
    write_csv(path, "V_G,first,second",
              ["%.17g,%.17g,%.17g" % row
               for row in zip(curve.v_g, curve.first, curve.second)])


def make_report(checkpoints, dataset: device.VoltageGridDataset,
                out_dir) -> list:
    """Evaluate one or more checkpoints into a summary table and per-sweep
    curve files in ``out_dir``; returns the names of the files written.
    Output bytes depend only on the inputs."""
    if isinstance(checkpoints, networks.Checkpoint):
        checkpoints = [checkpoints]
    reports = [evaluate_checkpoint(ck, dataset) for ck in checkpoints]
    os.makedirs(out_dir, exist_ok=True)
    write_csv(os.path.join(out_dir, "summary.csv"),
              "target,step_mv,seed,train_mape,test_mape,"
              "waviness_vd0.4,waviness_vd0.8",
              [",".join([r.target, str(r.step_mv), str(r.seed),
                         csv_field(r.train_mape), csv_field(r.test_mape),
                         csv_field(r.waviness[0.4]),
                         csv_field(r.waviness[0.8])]) for r in reports])
    names = ["summary.csv"]
    for idx, r in enumerate(reports):
        for vd, curve in sorted(r.sweeps.items()):
            names.append(f"sweep_{idx}_{r.target}_vd{vd:g}.csv")
            write_sweep(os.path.join(out_dir, names[-1]), curve)
    return names
