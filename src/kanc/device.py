"""Synthetic FinFET-like surrogate and voltage-grid datasets.

The surrogate is a fixed set of smooth closed forms for drain current and
terminal charges over the bias box 0 V..0.82 V on both axes.  It stands in
for a foundry compact model: infinitely differentiable, monotone where the
real device is, and cheap enough to tabulate densely.  Charges are kept in
units of 1e-18 F times volts (order 1..50 numbers) so the fitting targets
are well scaled.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

V_MAX = 0.82
MASTER_STEP_MV = 5
TRAIN_STEPS_MV = (5, 10, 20, 50)

THERMAL_VOLTAGE = 0.0258
THRESHOLD_VOLTAGE = 0.25
IDEALITY = 1.2
GAIN = 5e-3               # A / V^2
CHARGE_PER_VOLT = 60.0    # in 1e-18 F
CHARGE_UNIT = 1e-18       # F, scale between stored charge numbers and coulombs

FIELD_NAMES = ("I_D", "Q_D", "Q_S", "Q_G")


class VoltageRangeError(ValueError):
    """Raised for bias points outside the covered quadrant."""


def gate_drive(v_g):
    """Smooth gate-overdrive curve: soft knee at the threshold voltage."""
    scale = IDEALITY * THERMAL_VOLTAGE
    return scale * np.logaddexp(0.0, (np.asarray(v_g, dtype=float)
                                      - THRESHOLD_VOLTAGE) / scale)


def surrogate_fields(v_d, v_g) -> dict:
    """All four outputs for broadcastable voltage arrays (no range check)."""
    v_d = np.asarray(v_d, dtype=float)
    v_g = np.asarray(v_g, dtype=float)
    drive = gate_drive(v_g)
    i_d = GAIN * drive**2 * np.tanh(v_d / (0.08 + 0.6 * drive))
    q_s = -CHARGE_PER_VOLT * drive
    q_d = -CHARGE_PER_VOLT * drive * (0.35 + 0.25 * np.tanh((v_d - 0.3) / 0.2))
    q_g = -(q_s + q_d) * 1.5
    return {"I_D": i_d, "Q_D": q_d, "Q_S": q_s, "Q_G": q_g}


@dataclass(frozen=True)
class DevicePoint:
    """One bias point: current in amperes, charges in CHARGE_UNIT units."""

    v_d: float
    v_g: float
    i_d: float
    q_d: float
    q_s: float
    q_g: float


def surrogate_eval(v_d: float, v_g: float) -> DevicePoint:
    """Evaluate the surrogate at one bias point, rejecting out-of-range bias."""
    for name, v in (("V_D", v_d), ("V_G", v_g)):
        if not 0.0 <= v <= V_MAX:
            raise VoltageRangeError(f"{name}={v} outside [0, {V_MAX}]")
    f = surrogate_fields(v_d, v_g)
    return DevicePoint(float(v_d), float(v_g),
                       float(f["I_D"]), float(f["Q_D"]),
                       float(f["Q_S"]), float(f["Q_G"]))


def bulk_charge(q_d, q_s, q_g):
    """Remaining terminal charge under the zero-total-charge convention."""
    return -(np.asarray(q_d) + np.asarray(q_s) + np.asarray(q_g))


# Mid-range log-ampere level over the bias box; exponential heads start
# here because a zero bias would mean e^0 = 1 A, thirty log-units high.
LOG_CURRENT_INIT = -12.5


def convert_current(y):
    """Network current head emits log-amperes; invert to amperes."""
    return np.exp(np.asarray(y, dtype=float))


def convert_charge(y):
    """Network charge head emits scaled charge; convert to coulombs."""
    return np.asarray(y, dtype=float) * CHARGE_UNIT


def normalize_voltages(v):
    """Map raw volts onto the unit interval used as network input."""
    return np.asarray(v, dtype=float) / V_MAX


@dataclass
class VoltageGridDataset:
    """Dense master grid plus a train/test split by sub-sampling stride.

    The master grid steps 5 mV per axis from 0 V to 0.82 V (165 points per
    axis).  The train split keeps every point whose coordinates are both
    multiples of ``step_mv``; everything else is test.  Fields are stored as
    (n_vd, n_vg) matrices over the master grid.
    """

    step_mv: int
    vd_axis: np.ndarray
    vg_axis: np.ndarray
    fields: dict = field(repr=False)

    @property
    def train_indices(self) -> np.ndarray:
        stride = self.step_mv // MASTER_STEP_MV
        return np.arange(0, self.vd_axis.size, stride)

    @property
    def train_vd_axis(self) -> np.ndarray:
        return self.vd_axis[self.train_indices]

    @property
    def train_vg_axis(self) -> np.ndarray:
        return self.vg_axis[self.train_indices]

    @property
    def train_mask(self) -> np.ndarray:
        on_axis = np.zeros(self.vd_axis.size, dtype=bool)
        on_axis[self.train_indices] = True
        return on_axis[:, None] & on_axis[None, :]

    @property
    def train_count(self) -> int:
        return self.train_indices.size ** 2

    @property
    def test_count(self) -> int:
        return self.vd_axis.size * self.vg_axis.size - self.train_count

    def train_field(self, name: str) -> np.ndarray:
        """Field values on the train sub-grid, shape (n_train, n_train)."""
        idx = self.train_indices
        return self.fields[name][np.ix_(idx, idx)]

    def test_values(self, name: str) -> np.ndarray:
        return self.fields[name][~self.train_mask]

    def train_inputs(self) -> np.ndarray:
        """Train bias points as (N, 2) columns [V_D, V_G], row-major in V_D."""
        vd, vg = np.meshgrid(self.train_vd_axis, self.train_vg_axis, indexing="ij")
        return np.column_stack([vd.ravel(), vg.ravel()])

    def test_inputs(self) -> np.ndarray:
        vd, vg = np.meshgrid(self.vd_axis, self.vg_axis, indexing="ij")
        keep = ~self.train_mask
        return np.column_stack([vd[keep], vg[keep]])


def generate_dataset(step_mv: int) -> VoltageGridDataset:
    """Tabulate the surrogate on the master grid and split by stride."""
    if step_mv not in TRAIN_STEPS_MV:
        raise ValueError(f"step_mv must be one of {TRAIN_STEPS_MV}, got {step_mv}")
    mv = np.arange(0, int(round(V_MAX * 1000)) + 1, MASTER_STEP_MV)
    axis = mv / 1000.0
    vd, vg = np.meshgrid(axis, axis, indexing="ij")
    fields = surrogate_fields(vd, vg)
    return VoltageGridDataset(step_mv=step_mv, vd_axis=axis, vg_axis=axis,
                              fields=fields)


# ----------------------------------------------------------------------
# finite differences on the train sub-grid
# ----------------------------------------------------------------------

def derivative_stencil(n: int, h: float) -> np.ndarray:
    """Dense first-derivative matrix: central rows inside, second-order
    one-sided rows at both ends."""
    if n < 3:
        raise ValueError(f"need at least 3 points along the axis, got {n}")
    d = np.zeros((n, n))
    for i in range(1, n - 1):
        d[i, i - 1] = -0.5 / h
        d[i, i + 1] = 0.5 / h
    d[0, :3] = np.array([-1.5, 2.0, -0.5]) / h
    d[-1, -3:] = np.array([0.5, -2.0, 1.5]) / h
    return d


def grid_derivative(dataset: VoltageGridDataset, fld: str, axis: str,
                    order: int = 1) -> np.ndarray:
    """Finite-difference derivative of a field over the train sub-grid.

    ``axis`` selects the differentiation direction ("V_D" rows or "V_G"
    columns); ``order`` 2 applies the same stencil twice.
    """
    if axis not in ("V_D", "V_G"):
        raise ValueError(f"axis must be 'V_D' or 'V_G', got {axis!r}")
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    values = dataset.train_field(fld) if isinstance(fld, str) else np.asarray(fld)
    h = dataset.step_mv / 1000.0
    n = values.shape[0 if axis == "V_D" else 1]
    d = derivative_stencil(n, h)
    for _ in range(order):
        values = d @ values if axis == "V_D" else values @ d.T
    return values


# ----------------------------------------------------------------------
# plain-text persistence
# ----------------------------------------------------------------------

CSV_HEADER = ["V_D", "V_G", "I_D", "Q_D", "Q_S", "Q_G", "split"]


def save_dataset(dataset: VoltageGridDataset, path) -> None:
    """Write every master-grid row as delimited text, train rows first in
    row-major order, then test rows."""
    mask = dataset.train_mask
    vd, vg = np.meshgrid(dataset.vd_axis, dataset.vg_axis, indexing="ij")
    f = dataset.fields
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for split, sel in (("train", mask), ("test", ~mask)):
            rows = np.nonzero(sel)
            for i, j in zip(*rows):
                writer.writerow(
                    ["%.17g" % vd[i, j], "%.17g" % vg[i, j],
                     "%.17g" % f["I_D"][i, j], "%.17g" % f["Q_D"][i, j],
                     "%.17g" % f["Q_S"][i, j], "%.17g" % f["Q_G"][i, j],
                     split]
                )


def load_dataset(path) -> VoltageGridDataset:
    """Rebuild a dataset from `save_dataset` output, parsing rows as they are
    read.  Every master-grid point must appear once, in seven columns, with
    a split label that matches the train step the labels imply."""
    axis_mv = np.arange(0, int(round(V_MAX * 1000)) + 1, MASTER_STEP_MV)
    n = axis_mv.size
    nums = np.empty((n * n, 6))
    is_train = np.empty(n * n, dtype=bool)
    count = 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            if next(reader, None) != CSV_HEADER:
                raise ValueError("unexpected header; expected "
                                 + ",".join(CSV_HEADER))
            for line, r in enumerate(reader, start=2):
                if len(r) != len(CSV_HEADER) or r[6] not in ("train", "test"):
                    raise ValueError(f"line {line} does not hold "
                                     f"{len(CSV_HEADER)} columns ending in "
                                     "'train' or 'test'")
                if count == n * n:
                    raise ValueError(
                        f"lattice has more rows than its {n * n} points")
                nums[count] = [float(v) for v in r[:6]]
                is_train[count] = r[6] == "train"
                count += 1
        except csv.Error as exc:
            # a stray quote opens a field that can run to the end of the file
            raise ValueError(f"line {reader.line_num}: {exc}") from None
    if count != n * n:
        raise ValueError(f"lattice has {count} of its {n * n} points")
    point_mv = np.rint(nums[:, :2] * 1000)
    off = ~(np.isin(point_mv, axis_mv).all(axis=1) & np.isfinite(nums).all(axis=1))
    if off.any():
        raise ValueError(f"line {np.argmax(off) + 2} is not finite or not on the "
                         f"{MASTER_STEP_MV} mV master grid 0..{axis_mv[-1]} mV")
    i, j = (point_mv // MASTER_STEP_MV).astype(int).T
    seen = np.zeros((n, n), dtype=int)
    np.add.at(seen, (i, j), 1)
    if seen.max() > 1:
        a, b = np.argwhere(seen > 1)[0]
        raise ValueError(f"point V_D={axis_mv[a]} mV, V_G={axis_mv[b]} mV "
                         f"appears {seen[a, b]} times")
    fields = {name: np.zeros((n, n)) for name in FIELD_NAMES}
    for col, name in enumerate(FIELD_NAMES, start=2):
        fields[name][i, j] = nums[:, col]
    train_mv = np.unique(point_mv[is_train])
    step_mv = int(np.diff(train_mv).min()) if train_mv.size > 1 else MASTER_STEP_MV
    if step_mv not in TRAIN_STEPS_MV:
        raise ValueError(f"inferred train step {step_mv} mV is not supported")
    dataset = VoltageGridDataset(step_mv=step_mv, vd_axis=axis_mv / 1000.0,
                                 vg_axis=axis_mv / 1000.0, fields=fields)
    wrong = dataset.train_mask[i, j] != is_train
    if wrong.any():
        raise ValueError(f"line {np.argmax(wrong) + 2} has the wrong split "
                         f"for the inferred {step_mv} mV train step")
    return dataset
