"""B-spline bases, spline activations, and grid refinement.

Bases are defined over a fixed domain by a knot vector — uniform by
default, with optional explicit interior knots — that extends ``order``
cells past each end of the domain, giving ``grid_size + order`` basis
functions.  Evaluation outside the domain clamps the knot-cell index, which
extends each boundary piece as a polynomial, so activations stay smooth
when an input drifts out of range.  Refinement inserts knots (bisecting the
widest cells), so a refined spline reproduces the coarse one exactly.

One local kernel gives the ``order + 1`` supported basis functions and their
derivatives per sample; splines and dense design matrices are built from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


SAMPLES_PER_BASIS = 20   # transfer-fit samples per refined basis function


class RefinementError(RuntimeError):
    """Raised when a refinement least-squares system is rank deficient."""


@dataclass(frozen=True)
class KnotVector:
    """Knots over ``[domain_lo, domain_hi]``, uniform unless ``interior``
    lists explicit interior knot positions.

    ``grid_size`` counts the cells inside the domain; the stored knot array
    has ``grid_size + 2 * order + 1`` entries (the boundary cells extend
    past each end of the domain at the adjacent cell's width) and supports
    ``grid_size + order`` basis functions of the given order.
    """

    grid_size: int
    order: int = 3
    domain_lo: float = 0.0
    domain_hi: float = 1.0
    interior: tuple | None = None
    knots: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.grid_size < 1:
            raise ValueError(f"grid_size must be positive, got {self.grid_size}")
        if self.order < 0:
            raise ValueError(f"order must be >= 0, got {self.order}")
        if not self.domain_hi > self.domain_lo:
            raise ValueError("domain_hi must exceed domain_lo")
        if self.interior is not None:
            pts = tuple(float(v) for v in self.interior)
            if not pts:
                object.__setattr__(self, "interior", None)
            else:
                if len(pts) != self.grid_size - 1:
                    raise ValueError(
                        f"{self.grid_size} cells need {self.grid_size - 1} "
                        f"interior knots, got {len(pts)}"
                    )
                bounds = (self.domain_lo,) + pts + (self.domain_hi,)
                if any(nxt <= prev for prev, nxt in zip(bounds[:-1],
                                                        bounds[1:])):
                    raise ValueError("interior knots must increase strictly "
                                     "inside the domain")
                object.__setattr__(self, "interior", pts)
        if self.interior is None:
            h = (self.domain_hi - self.domain_lo) / self.grid_size
            idx = np.arange(-self.order, self.grid_size + self.order + 1)
            knots = self.domain_lo + h * idx
        else:
            bounds = np.array((self.domain_lo,) + self.interior
                              + (self.domain_hi,))
            w_lo = bounds[1] - bounds[0]
            w_hi = bounds[-1] - bounds[-2]
            knots = np.concatenate([
                self.domain_lo - w_lo * np.arange(self.order, 0, -1),
                bounds,
                self.domain_hi + w_hi * np.arange(1, self.order + 1),
            ])
        knots.flags.writeable = False
        object.__setattr__(self, "knots", knots)

    @property
    def n_basis(self) -> int:
        return self.grid_size + self.order


def _local_basis(kv: KnotVector, x):
    """``(first, vals, derivs)``: the ``order + 1`` basis functions
    supported at each sample and their derivatives, ``vals[m]`` and
    ``derivs[m]`` (each ``(order + 1, *x.shape)``) belonging to function
    ``first + m``.  One triangular recurrence (de Boor) on the knot cell,
    clamped to the domain so boundary pieces extend as polynomials; the
    derivative ``B'_{i,k} = k (B_{i,k-1} / (t[i+k] - t[i]) - B_{i+1,k-1} /
    (t[i+k+1] - t[i+1]))`` uses the order ``k - 1`` row it builds on its way.
    """
    x = np.asarray(x, dtype=float)
    k, t = kv.order, kv.knots
    j = np.clip(np.searchsorted(t, x, side="right") - 1, k, kv.grid_size + k - 1)
    vals = np.empty((k + 1,) + x.shape)
    derivs = np.zeros((k + 1,) + x.shape)
    vals[0] = 1.0
    left, right = {}, {}
    for r in range(1, k + 1):
        left[r] = x - t[j + 1 - r]
        right[r] = t[j + r] - x
        saved = 0.0
        for m in range(r):
            # vals[m] is B_{i,r-1}, i = j - r + 1 + m; divisor t[i+r] - t[i]
            temp = vals[m] / (right[m + 1] + left[r - m])
            if r == k:
                w = k * temp
                derivs[m] -= w
                derivs[m + 1] += w
            vals[m] = saved + right[m + 1] * temp
            saved = left[r - m] * temp
        vals[r] = saved
    return j - k, vals, derivs


def _combine(first, rows, coeffs) -> np.ndarray:
    """``sum_m rows[m] * coeffs[first + m]`` for rows of :func:`_local_basis`."""
    slots = first + np.arange(len(rows)).reshape((-1,) + (1,) * first.ndim)
    return np.einsum("m...,m...->...", rows, coeffs.take(slots))


def _dense(kv: KnotVector, x, row: int) -> np.ndarray:
    """Row 1 (values) or 2 (derivatives) of the local basis, made dense."""
    local = _local_basis(kv, np.atleast_1d(np.asarray(x, dtype=float)))
    out = np.zeros((local[0].size, kv.n_basis))
    cols = local[0][:, None] + np.arange(kv.order + 1)
    np.put_along_axis(out, cols, local[row].T, axis=1)
    return out


def basis_matrix(kv: KnotVector, x) -> np.ndarray:
    """All basis functions evaluated at ``x``; shape ``(len(x), n_basis)``."""
    return _dense(kv, x, 1)


def basis_deriv_matrix(kv: KnotVector, x) -> np.ndarray:
    """First derivative of every basis function at ``x``."""
    return _dense(kv, x, 2)


def basis_eval(kv: KnotVector, x: float) -> np.ndarray:
    """Basis values at a single point, as a vector of length ``n_basis``."""
    return basis_matrix(kv, [x])[0]


def _sigmoid(x):
    """Sigmoid with a sign split, so large |x| stays stable."""
    pos = x >= 0
    ez = np.exp(np.where(pos, -x, x))
    return np.where(pos, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def silu(x):
    """x * sigmoid(x)."""
    x = np.asarray(x, dtype=float)
    return x * _sigmoid(x)


def silu_deriv(x):
    x = np.asarray(x, dtype=float)
    sig = _sigmoid(x)
    return sig * (1.0 + x * (1.0 - sig))


@dataclass
class SplineActivation:
    """One learnable edge function: ``w_b * silu(x) + w_s * sum_i c_i B_i(x)``."""

    knots: KnotVector
    coeffs: np.ndarray
    w_b: float = 1.0
    w_s: float = 1.0

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.knots.n_basis,):
            raise ValueError(
                f"expected {self.knots.n_basis} coefficients, got {self.coeffs.shape}"
            )


def spline_eval(act: SplineActivation, x):
    """Edge output at ``x`` (scalar in, scalar out; array in, array out)."""
    scalar = np.isscalar(x) or np.asarray(x).ndim == 0
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    first, vals, _ = _local_basis(act.knots, xv)
    y = act.w_b * silu(xv) + act.w_s * _combine(first, vals, act.coeffs)
    return float(y[0]) if scalar else y


def spline_deriv(act: SplineActivation, x):
    """Derivative of the edge output with respect to its input."""
    scalar = np.isscalar(x) or np.asarray(x).ndim == 0
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    first, _, derivs = _local_basis(act.knots, xv)
    y = act.w_b * silu_deriv(xv) + act.w_s * _combine(first, derivs, act.coeffs)
    return float(y[0]) if scalar else y


def _solve_full_rank(design: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Least-squares solve that refuses rank-deficient systems."""
    sol, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < design.shape[1]:
        raise RefinementError(
            f"refinement system is rank deficient ({rank} < {design.shape[1]})"
        )
    return sol


def refined_knots(kv: KnotVector, new_grid_size: int) -> KnotVector:
    """A ``new_grid_size``-cell knot vector whose knots contain every knot
    of ``kv``.

    New knots bisect the widest cells, spread evenly among ties, so the old
    spline space embeds exactly in the refined one — the transfer fit below
    then reproduces the old curve (and its boundary extrapolation) to
    round-off.  A uniform grid refined by an integer factor stays uniform,
    and the ladder 8 -> 12 -> 16 returns to uniform at 16.
    """
    if new_grid_size < kv.grid_size:
        raise ValueError("refinement must not decrease the grid size")
    if new_grid_size == kv.grid_size:
        return kv
    bounds = [kv.domain_lo, *(kv.interior or
                              np.linspace(kv.domain_lo, kv.domain_hi,
                                          kv.grid_size + 1)[1:-1]),
              kv.domain_hi]
    need = new_grid_size - (len(bounds) - 1)
    while need > 0:
        widths = np.diff(bounds)
        ties = np.nonzero(widths >= widths.max() * (1.0 - 1e-9))[0]
        m = min(need, ties.size)
        pick = [ties[int((j + 0.5) * ties.size / m)] for j in range(m)]
        for cell in sorted(pick, reverse=True):
            mid = 0.5 * (bounds[cell] + bounds[cell + 1])
            bounds.insert(cell + 1, mid)
        need -= m
    widths = np.diff(bounds)
    span = kv.domain_hi - kv.domain_lo
    if np.ptp(widths) <= 1e-12 * span:
        interior = None
    else:
        interior = tuple(bounds[1:-1])
    return KnotVector(new_grid_size, kv.order, kv.domain_lo, kv.domain_hi,
                      interior=interior)


def _transfer(old: KnotVector, new_grid_size: int, coeffs: np.ndarray):
    """Refined knots and the coefficients that re-express every spline in
    ``coeffs`` (shape ``(..., old.n_basis)``) on them.

    The refined knot vector keeps every old knot (see ``refined_knots``), so
    one least-squares fit against a dense uniform sample of the domain, with
    one right-hand side per spline, reproduces each old spline exactly up
    to round-off.
    """
    kv = refined_knots(old, new_grid_size)
    n_samples = SAMPLES_PER_BASIS * kv.n_basis
    xs = np.linspace(old.domain_lo, old.domain_hi, n_samples)
    design = basis_matrix(kv, xs)
    targets = basis_matrix(old, xs) @ coeffs.reshape(-1, old.n_basis).T
    new = _solve_full_rank(design, targets)
    return kv, new.T.reshape(coeffs.shape[:-1] + (kv.n_basis,))


def refine(act: SplineActivation, new_grid_size: int) -> SplineActivation:
    """Re-express the spline part on a denser grid by least squares; silu
    weights are carried over unchanged.  Coarse-to-fine only."""
    kv, coeffs = _transfer(act.knots, new_grid_size, act.coeffs)
    return SplineActivation(kv, coeffs, act.w_b, act.w_s)
