"""Network families: dense MLP, spline-edge network, Fourier-edge network.

All families map a normalized (V_D, V_G) pair in [0, 1]^2 to one scalar head.
The head is interpreted through a conversion: "exp-current" heads emit
log-amperes, "charge-scale" heads emit charge in scaled units.

The spline network follows the sum-of-edge-functions construction: every
edge carries its own learnable curve ``w_b silu(x) + w_s sum_i c_i B_i(x)``
and every node adds its incoming edges plus a bias.  Edges can later be
pinned to a closed-form primitive (see :mod:`kanc.symbolic`); pinned edges
keep their affine wrapper trainable while the spline coefficients drop out
of the trainable set.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field

import numpy as np

from . import device, splines
from .diffengine import Tape, fourier_sum, fourier_tables

CONVERSIONS = ("exp-current", "charge-scale")
KINDS = ("mlp", "kan", "fkan", "oracle")

CHECKPOINT_VERSION = "kanc-v1"


class CheckpointError(ValueError):
    """Raised when a checkpoint file cannot be parsed."""


# ----------------------------------------------------------------------
# specs and presets
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class NetworkSpec:
    kind: str
    widths: tuple
    conversion: str
    spline_order: int = 3
    grid: int = 16
    fkan_grids: tuple = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.conversion not in CONVERSIONS:
            raise ValueError(f"unknown conversion {self.conversion!r}")
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        if self.kind != "oracle":
            if len(self.widths) < 2 or min(self.widths) < 1:
                raise ValueError(f"bad widths {self.widths}")
        if self.kind == "fkan":
            grids = tuple(int(g) for g in self.fkan_grids)
            if len(grids) != len(self.widths) - 1:
                raise ValueError("fkan needs one grid size per layer")
            object.__setattr__(self, "fkan_grids", grids)

    @property
    def n_layers(self) -> int:
        return len(self.widths) - 1


def conversion_for(target: str) -> str:
    return "exp-current" if target == "I_D" else "charge-scale"


def preset(name: str, target: str) -> NetworkSpec:
    """Published architecture shapes by short name."""
    conv = conversion_for(target)
    name = name.lower()
    if name == "mlp1":
        return NetworkSpec("mlp", (2, 16, 16, 1), conv)
    if name == "mlp2":
        return NetworkSpec("mlp", (2, 16, 16, 16, 1), conv)
    if name == "kan1":
        widths = (2, 3, 1, 1) if target == "I_D" else (2, 3, 1)
        return NetworkSpec("kan", widths, conv)
    if name == "kan2":
        widths = (2, 3, 3, 1, 1) if target == "I_D" else (2, 3, 3, 1)
        return NetworkSpec("kan", widths, conv)
    if name == "fkan1":
        return NetworkSpec("fkan", (2, 8, 1), conv, fkan_grids=(8, 8))
    if name == "fkan2":
        return NetworkSpec("fkan", (2, 8, 8, 1), conv, fkan_grids=(8, 2, 8))
    if name == "oracle":
        return NetworkSpec("oracle", (), conv)
    raise ValueError(f"unknown preset {name!r}")


# ----------------------------------------------------------------------
# parameter containers
# ----------------------------------------------------------------------

@dataclass
class MlpParams:
    weights: list
    biases: list


@dataclass(frozen=True)
class FixedEdge:
    """A pinned edge: output is c * f(a x + b) + d for a library primitive."""

    name: str
    a: float
    b: float
    c: float
    d: float

    def __call__(self, x):
        """Edge output; inputs outside the primitive's domain give inf or
        nan without warnings."""
        from .symbolic import LIBRARY_BY_NAME  # local import, no cycle at load

        f = LIBRARY_BY_NAME[self.name]
        with np.errstate(all="ignore"):
            return self.c * f(self.a * np.asarray(x, dtype=float)
                              + self.b) + self.d


@dataclass
class KanLayer:
    knots: splines.KnotVector
    coeffs: np.ndarray          # (n_in, n_out, n_basis)
    w_b: np.ndarray             # (n_in, n_out)
    w_s: np.ndarray             # (n_in, n_out)
    bias: np.ndarray            # (n_out,)
    fixed: dict = field(default_factory=dict)   # (i, j) -> FixedEdge

    @property
    def n_in(self) -> int:
        return self.coeffs.shape[0]

    @property
    def n_out(self) -> int:
        return self.coeffs.shape[1]

    def activation(self, i: int, j: int) -> splines.SplineActivation:
        return splines.SplineActivation(
            self.knots, self.coeffs[i, j].copy(),
            float(self.w_b[i, j]), float(self.w_s[i, j])
        )


@dataclass
class KanParams:
    layers: list

    @property
    def grid_size(self) -> int:
        return self.layers[0].knots.grid_size


@dataclass
class FourierLayer:
    grid: int
    cos_coef: np.ndarray        # (n_out, n_in, grid)
    sin_coef: np.ndarray        # (n_out, n_in, grid)
    bias: np.ndarray            # (n_out,)


@dataclass
class FkanParams:
    layers: list


@dataclass
class Checkpoint:
    spec: NetworkSpec
    params: object
    meta: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# initialization
# ----------------------------------------------------------------------

def _head_bias(spec: NetworkSpec) -> float:
    """Initial output-node bias: exponential heads start at a mid-range
    log current instead of e^0 = 1 A."""
    return device.LOG_CURRENT_INIT if spec.conversion == "exp-current" else 0.0


def init_params(spec: NetworkSpec, seed: int = 0, grid_size: int | None = None):
    """Fresh parameters for a spec; spline networks may start on a coarser
    grid than the spec's final one (refinement ladder)."""
    rng = np.random.default_rng(seed)
    if spec.kind == "mlp":
        weights, biases = [], []
        for n_in, n_out in zip(spec.widths[:-1], spec.widths[1:]):
            bound = np.sqrt(6.0 / (n_in + n_out))
            weights.append(rng.uniform(-bound, bound, size=(n_in, n_out)))
            biases.append(np.zeros(n_out))
        biases[-1] = biases[-1] + _head_bias(spec)
        return MlpParams(weights, biases)
    if spec.kind == "kan":
        g = spec.grid if grid_size is None else int(grid_size)
        kv = splines.KnotVector(g, spec.spline_order)
        layers = []
        for n_in, n_out in zip(spec.widths[:-1], spec.widths[1:]):
            # noise shrinks with grid resolution and the residual path with
            # fan-in, so node outputs stay near the spline domain at init
            layers.append(KanLayer(
                knots=kv,
                coeffs=rng.normal(scale=0.1 / g,
                                  size=(n_in, n_out, kv.n_basis)),
                w_b=np.full((n_in, n_out), 1.0 / np.sqrt(n_in)),
                w_s=np.ones((n_in, n_out)),
                bias=np.zeros(n_out),
            ))
        layers[-1].bias = layers[-1].bias + _head_bias(spec)
        return KanParams(layers)
    if spec.kind == "fkan":
        layers = []
        for (n_in, n_out), g in zip(
            zip(spec.widths[:-1], spec.widths[1:]), spec.fkan_grids
        ):
            scale = 1.0 / (n_in * np.sqrt(g))
            layers.append(FourierLayer(
                grid=g,
                cos_coef=rng.normal(scale=scale, size=(n_out, n_in, g)),
                sin_coef=rng.normal(scale=scale, size=(n_out, n_in, g)),
                bias=np.zeros(n_out),
            ))
        layers[-1].bias = layers[-1].bias + _head_bias(spec)
        return FkanParams(layers)
    if spec.kind == "oracle":
        return None
    raise ValueError(f"unknown kind {spec.kind!r}")


def param_count(spec: NetworkSpec) -> int:
    """Trainable parameter count under this package's conventions.

    Spline networks count (order + grid + 2) numbers per edge (coefficients
    plus the two blend weights) at the spec's final grid, plus one bias per
    node.  Fourier layers count cos and sin tables plus node biases.
    """
    pairs = list(zip(spec.widths[:-1], spec.widths[1:]))
    if spec.kind == "mlp":
        return sum(n_in * n_out + n_out for n_in, n_out in pairs)
    if spec.kind == "kan":
        per_edge = spec.grid + spec.spline_order + 2
        return sum(n_in * n_out * per_edge + n_out for n_in, n_out in pairs)
    if spec.kind == "fkan":
        return sum(2 * g * n_in * n_out + n_out
                   for (n_in, n_out), g in zip(pairs, spec.fkan_grids))
    if spec.kind == "oracle":
        return 0
    raise ValueError(f"unknown kind {spec.kind!r}")


# ----------------------------------------------------------------------
# forward passes (plain numpy)
# ----------------------------------------------------------------------

def _as_batch(x):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x[None, :], True
    return x, False


def mlp_forward(spec: NetworkSpec, params: MlpParams, x):
    h, single = _as_batch(x)
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w + b
        if i < last:
            h = np.tanh(h)
    out = h[:, 0]
    return float(out[0]) if single else out


def kan_layer_outputs(layer: KanLayer, h: np.ndarray) -> np.ndarray:
    """Per-edge outputs for one layer; shape (N, n_in, n_out)."""
    n, n_in, n_out = h.shape[0], layer.n_in, layer.n_out
    edges = np.empty((n, n_in, n_out))
    for i in range(n_in):
        basis = splines.basis_matrix(layer.knots, h[:, i])
        spline_part = basis @ layer.coeffs[i].T        # (N, n_out)
        base_part = splines.silu(h[:, i])[:, None] * layer.w_b[i][None, :]
        edges[:, i, :] = base_part + layer.w_s[i][None, :] * spline_part
    for (i, j), fx in layer.fixed.items():
        edges[:, i, j] = fx(h[:, i])
    return edges


def kan_forward(spec: NetworkSpec, params: KanParams, x, record: bool = False):
    h, single = _as_batch(x)
    recorded = []
    for layer in params.layers:
        edges = kan_layer_outputs(layer, h)
        if record:
            recorded.append(edges)
        h = edges.sum(axis=1) + layer.bias[None, :]
    out = h[:, 0]
    if record:
        return (float(out[0]) if single else out), recorded
    return float(out[0]) if single else out


def fkan_forward(spec: NetworkSpec, params: FkanParams, x):
    h, single = _as_batch(x)
    for layer in params.layers:
        C, S = fourier_tables(h, layer.grid)
        h = fourier_sum(C, S, layer.cos_coef, layer.sin_coef) + layer.bias[None, :]
    out = h[:, 0]
    return float(out[0]) if single else out


def net_forward(spec: NetworkSpec, params, x):
    if spec.kind == "mlp":
        return mlp_forward(spec, params, x)
    if spec.kind == "kan":
        return kan_forward(spec, params, x)
    if spec.kind == "fkan":
        return fkan_forward(spec, params, x)
    raise ValueError(f"no direct forward for kind {spec.kind!r}")


# ----------------------------------------------------------------------
# tape builders
# ----------------------------------------------------------------------

def leaf_spec(spec: NetworkSpec, params) -> list:
    """Ordered (name, shape) pairs for every trainable leaf.

    Pinned spline edges contribute their four affine numbers instead of the
    coefficient vector and blend weights.
    """
    out = []
    if spec.kind == "mlp":
        for l, (w, b) in enumerate(zip(params.weights, params.biases)):
            out.append((f"L{l}.W", w.shape))
            out.append((f"L{l}.b", b.shape))
    elif spec.kind == "kan":
        for l, layer in enumerate(params.layers):
            for i in range(layer.n_in):
                for j in range(layer.n_out):
                    if (i, j) in layer.fixed:
                        for p in ("a", "b", "c", "d"):
                            out.append((f"L{l}.fix{p}.{i}.{j}", ()))
                    else:
                        out.append((f"L{l}.c.{i}.{j}", (layer.knots.n_basis,)))
                        out.append((f"L{l}.wb.{i}.{j}", ()))
                        out.append((f"L{l}.ws.{i}.{j}", ()))
            out.append((f"L{l}.bias", layer.bias.shape))
    elif spec.kind == "fkan":
        for l, layer in enumerate(params.layers):
            out.append((f"L{l}.cos", layer.cos_coef.shape))
            out.append((f"L{l}.sin", layer.sin_coef.shape))
            out.append((f"L{l}.bias", layer.bias.shape))
    else:
        raise ValueError(f"kind {spec.kind!r} has no trainable leaves")
    return out


def leaf_values(spec: NetworkSpec, params) -> dict:
    """Current parameter values keyed like :func:`leaf_spec`."""
    vals = {}
    if spec.kind == "mlp":
        for l, (w, b) in enumerate(zip(params.weights, params.biases)):
            vals[f"L{l}.W"] = w
            vals[f"L{l}.b"] = b
    elif spec.kind == "kan":
        for l, layer in enumerate(params.layers):
            for i in range(layer.n_in):
                for j in range(layer.n_out):
                    fx = layer.fixed.get((i, j))
                    if fx is not None:
                        vals[f"L{l}.fixa.{i}.{j}"] = np.asarray(fx.a)
                        vals[f"L{l}.fixb.{i}.{j}"] = np.asarray(fx.b)
                        vals[f"L{l}.fixc.{i}.{j}"] = np.asarray(fx.c)
                        vals[f"L{l}.fixd.{i}.{j}"] = np.asarray(fx.d)
                    else:
                        vals[f"L{l}.c.{i}.{j}"] = layer.coeffs[i, j]
                        vals[f"L{l}.wb.{i}.{j}"] = np.asarray(layer.w_b[i, j])
                        vals[f"L{l}.ws.{i}.{j}"] = np.asarray(layer.w_s[i, j])
            vals[f"L{l}.bias"] = layer.bias
    elif spec.kind == "fkan":
        for l, layer in enumerate(params.layers):
            vals[f"L{l}.cos"] = layer.cos_coef
            vals[f"L{l}.sin"] = layer.sin_coef
            vals[f"L{l}.bias"] = layer.bias
    return vals


def set_leaf_values(spec: NetworkSpec, params, vals: dict):
    """Write leaf values back into the parameter container (in place)."""
    if spec.kind == "mlp":
        for l in range(len(params.weights)):
            params.weights[l] = np.asarray(vals[f"L{l}.W"], dtype=float)
            params.biases[l] = np.asarray(vals[f"L{l}.b"], dtype=float)
    elif spec.kind == "kan":
        for l, layer in enumerate(params.layers):
            for i in range(layer.n_in):
                for j in range(layer.n_out):
                    if (i, j) in layer.fixed:
                        layer.fixed[(i, j)] = FixedEdge(
                            layer.fixed[(i, j)].name,
                            float(vals[f"L{l}.fixa.{i}.{j}"]),
                            float(vals[f"L{l}.fixb.{i}.{j}"]),
                            float(vals[f"L{l}.fixc.{i}.{j}"]),
                            float(vals[f"L{l}.fixd.{i}.{j}"]),
                        )
                    else:
                        layer.coeffs[i, j] = np.asarray(vals[f"L{l}.c.{i}.{j}"])
                        layer.w_b[i, j] = float(vals[f"L{l}.wb.{i}.{j}"])
                        layer.w_s[i, j] = float(vals[f"L{l}.ws.{i}.{j}"])
            layer.bias = np.asarray(vals[f"L{l}.bias"], dtype=float)
    elif spec.kind == "fkan":
        for l, layer in enumerate(params.layers):
            layer.cos_coef = np.asarray(vals[f"L{l}.cos"], dtype=float)
            layer.sin_coef = np.asarray(vals[f"L{l}.sin"], dtype=float)
            layer.bias = np.asarray(vals[f"L{l}.bias"], dtype=float)
    else:
        raise ValueError(f"kind {spec.kind!r} has no trainable leaves")
    return params


def build_forward_tape(tape: Tape, spec: NetworkSpec, params, x_const: np.ndarray,
                       leaves: dict | None = None) -> int:
    """Record the network forward pass on ``tape`` for a fixed input batch.

    Returns the index of the (N,) output node.  ``leaves`` maps leaf name to
    node index and is filled in; pass a dict to share leaves across calls.
    """
    if leaves is None:
        leaves = {}

    def get_leaf(name, shape):
        if name not in leaves:
            leaves[name] = tape.leaf(name, shape)
        return leaves[name]

    n = x_const.shape[0]
    if spec.kind == "mlp":
        h = tape.const(x_const)
        last = len(params.weights) - 1
        for l in range(len(params.weights)):
            w = get_leaf(f"L{l}.W", params.weights[l].shape)
            b = get_leaf(f"L{l}.b", params.biases[l].shape)
            h = tape.add(tape.matmul(h, w), b)
            if l < last:
                h = tape.tanh(h)
        return tape.reshape(h, (n,))

    if spec.kind == "kan":
        from .symbolic import LIBRARY_BY_NAME

        cols = [tape.const(x_const[:, i]) for i in range(x_const.shape[1])]
        for l, layer in enumerate(params.layers):
            sums = [None] * layer.n_out
            silu_cols = [tape.silu(c) for c in cols]
            for i in range(layer.n_in):
                for j in range(layer.n_out):
                    fx = layer.fixed.get((i, j))
                    if fx is not None:
                        a = get_leaf(f"L{l}.fixa.{i}.{j}", ())
                        b = get_leaf(f"L{l}.fixb.{i}.{j}", ())
                        c = get_leaf(f"L{l}.fixc.{i}.{j}", ())
                        d = get_leaf(f"L{l}.fixd.{i}.{j}", ())
                        inner = tape.add(tape.mul(cols[i], a), b)
                        body = LIBRARY_BY_NAME[fx.name].tape_builder(tape, inner)
                        edge = tape.add(tape.mul(body, c), d)
                    else:
                        coef = get_leaf(f"L{l}.c.{i}.{j}", (layer.knots.n_basis,))
                        wb = get_leaf(f"L{l}.wb.{i}.{j}", ())
                        ws = get_leaf(f"L{l}.ws.{i}.{j}", ())
                        spline_part = tape.spline(cols[i], coef, layer.knots)
                        edge = tape.add(tape.mul(silu_cols[i], wb),
                                        tape.mul(spline_part, ws))
                    sums[j] = edge if sums[j] is None else tape.add(sums[j], edge)
            bias = get_leaf(f"L{l}.bias", layer.bias.shape)
            # bias add per node: pick out entry j with a constant one-hot so
            # the running columns stay 1-D
            cols = []
            for j in range(layer.n_out):
                onehot = np.zeros(layer.n_out)
                onehot[j] = 1.0
                bj = tape.sum(tape.mul(bias, tape.const(onehot)))
                cols.append(tape.add(sums[j], bj))
        return cols[0]

    if spec.kind == "fkan":
        h = tape.const(x_const)
        for l, layer in enumerate(params.layers):
            cos_w = get_leaf(f"L{l}.cos", layer.cos_coef.shape)
            sin_w = get_leaf(f"L{l}.sin", layer.sin_coef.shape)
            bias = get_leaf(f"L{l}.bias", layer.bias.shape)
            h = tape.add(tape.fourier(h, cos_w, sin_w), bias)
        return tape.reshape(h, (n,))

    raise ValueError(f"no tape builder for kind {spec.kind!r}")


# ----------------------------------------------------------------------
# refinement and attribution
# ----------------------------------------------------------------------

def refine_kan(params: KanParams, new_grid_size: int,
               samples_per_basis: int = 20) -> KanParams:
    """Move every layer of a spline network to a denser grid.

    The refined knots keep every old knot, so one least-squares solve per
    layer (all edges share the design matrix) transfers the curves exactly
    up to round-off."""
    new_layers = []
    for layer in params.layers:
        kv, coeffs = splines._transfer(layer.knots, new_grid_size,
                                       layer.coeffs, samples_per_basis)
        new_layers.append(KanLayer(
            knots=kv, coeffs=coeffs, w_b=layer.w_b.copy(),
            w_s=layer.w_s.copy(), bias=layer.bias.copy(),
            fixed=dict(layer.fixed),
        ))
    return KanParams(new_layers)


def attribution(spec: NetworkSpec, params: KanParams, x: np.ndarray) -> list:
    """Importance scores from edge-output variation over a batch.

    Per layer: edge score = std of the edge output, normalized by the layer
    maximum (all-zero layers stay zero); node score = max over its outgoing
    edges.  Returns a list of dicts with "edges" (n_in, n_out) and "nodes"
    (n_in,) arrays.
    """
    if spec.kind != "kan":
        raise ValueError("attribution applies to spline networks")
    _, recorded = kan_forward(spec, params, np.asarray(x, dtype=float),
                              record=True)
    out = []
    for edges in recorded:
        score = edges.std(axis=0)
        top = score.max()
        if top > 0:
            score = score / top
        out.append({"edges": score, "nodes": score.max(axis=1)})
    return out


# ----------------------------------------------------------------------
# checkpoint serialization
# ----------------------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def _write_array(lines: list, name: str, arr: np.ndarray) -> None:
    arr = np.asarray(arr, dtype=float)
    dims = " ".join(str(d) for d in arr.shape)
    lines.append(f"array {name} {dims}")
    lines.append(" ".join(_fmt(v) for v in arr.ravel()))


def save_checkpoint(ck: Checkpoint, path) -> None:
    spec = ck.spec
    lines = [CHECKPOINT_VERSION, f"kind {spec.kind}",
             f"conversion {spec.conversion}"]
    if spec.widths:
        lines.append("widths " + " ".join(str(w) for w in spec.widths))
    if spec.kind == "mlp":
        lines.append("activation tanh")   # the only hidden activation
    if spec.kind == "kan":
        lines.append(f"spline_order {spec.spline_order}")
        lines.append(f"grid {spec.grid}")
    if spec.kind == "fkan":
        lines.append("grids " + " ".join(str(g) for g in spec.fkan_grids))
    for key in sorted(ck.meta):
        value = ck.meta[key]
        if isinstance(value, np.generic):   # np.float64(0.5) is written 0.5
            value = value.item()
        lines.append(f"meta {key} {value!r}")
    p = ck.params
    if spec.kind == "mlp":
        for l, (w, b) in enumerate(zip(p.weights, p.biases)):
            _write_array(lines, f"L{l}.W", w)
            _write_array(lines, f"L{l}.b", b)
    elif spec.kind == "kan":
        for l, layer in enumerate(p.layers):
            _write_array(lines, f"L{l}.coeffs", layer.coeffs)
            _write_array(lines, f"L{l}.w_b", layer.w_b)
            _write_array(lines, f"L{l}.w_s", layer.w_s)
            _write_array(lines, f"L{l}.bias", layer.bias)
            if layer.knots.interior is not None:
                _write_array(lines, f"L{l}.knots",
                             np.asarray(layer.knots.interior))
        for l, layer in enumerate(p.layers):
            for (i, j) in sorted(layer.fixed):
                fx = layer.fixed[(i, j)]
                lines.append(
                    f"fixed {l} {i} {j} {fx.name} "
                    f"{_fmt(fx.a)} {_fmt(fx.b)} {_fmt(fx.c)} {_fmt(fx.d)}"
                )
    elif spec.kind == "fkan":
        for l, layer in enumerate(p.layers):
            _write_array(lines, f"L{l}.cos", layer.cos_coef)
            _write_array(lines, f"L{l}.sin", layer.sin_coef)
            _write_array(lines, f"L{l}.bias", layer.bias)
    lines.append("end")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


_NON_FINITE = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint written by :func:`save_checkpoint`; any missing or
    malformed entry raises :class:`CheckpointError`."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {lines[0] if lines else '<empty>'!r}"
        )
    try:
        return _parse_checkpoint(lines)
    except CheckpointError:
        raise
    except KeyError as exc:
        raise CheckpointError(f"checkpoint has no {exc.args[0]!r} entry") from None
    except (IndexError, ValueError, SyntaxError) as exc:
        raise CheckpointError(f"malformed checkpoint: {exc}") from None


def _parse_checkpoint(lines: list) -> Checkpoint:
    header: dict = {"meta": {}}
    arrays: dict = {}
    fixed_rows = []
    i = 1
    while i < len(lines):
        ln = lines[i]
        if ln == "end":
            break
        tok = ln.split()
        if tok[0] == "meta":
            raw = ln.split(None, 2)[2]
            # the writer's repr of a non-finite float is not a literal
            header["meta"][tok[1]] = (_NON_FINITE[raw] if raw in _NON_FINITE
                                      else ast.literal_eval(raw))
        elif tok[0] == "array":
            dims = tuple(int(d) for d in tok[2:])
            i += 1
            flat = np.array([float(v) for v in lines[i].split()])
            arrays[tok[1]] = flat.reshape(dims)
        elif tok[0] == "fixed":
            fixed_rows.append((int(tok[1]), int(tok[2]), int(tok[3]), tok[4],
                               float(tok[5]), float(tok[6]), float(tok[7]),
                               float(tok[8])))
        else:
            header[tok[0]] = tok[1:]
        i += 1
    else:
        raise CheckpointError("missing 'end' line")

    kind = header["kind"][0]
    if kind not in KINDS:
        raise CheckpointError(f"unknown kind {kind!r}")
    conversion = header["conversion"][0]
    if kind == "oracle":
        return Checkpoint(NetworkSpec("oracle", (), conversion), None,
                          header["meta"])
    widths = tuple(int(w) for w in header["widths"])
    if kind == "mlp":
        activation = header.get("activation", ["tanh"])[0]
        if activation != "tanh":
            raise CheckpointError(f"unsupported activation {activation!r}")
        spec = NetworkSpec("mlp", widths, conversion)
        n_layers = len(widths) - 1
        params = MlpParams(
            [arrays[f"L{l}.W"] for l in range(n_layers)],
            [arrays[f"L{l}.b"] for l in range(n_layers)],
        )
    elif kind == "kan":
        order = int(header["spline_order"][0])
        grid = int(header["grid"][0])
        spec = NetworkSpec("kan", widths, conversion, spline_order=order,
                           grid=grid)
        layers = []
        for l in range(len(widths) - 1):
            coeffs = arrays[f"L{l}.coeffs"]
            interior = arrays.get(f"L{l}.knots")
            kv = splines.KnotVector(
                coeffs.shape[2] - order, order,
                interior=None if interior is None else tuple(interior))
            layers.append(KanLayer(
                knots=kv, coeffs=coeffs, w_b=arrays[f"L{l}.w_b"],
                w_s=arrays[f"L{l}.w_s"], bias=arrays[f"L{l}.bias"],
            ))
        from .symbolic import LIBRARY_BY_NAME  # local import, no cycle at load

        for l, i_, j_, name, a, b, c, d in fixed_rows:
            if (name not in LIBRARY_BY_NAME or not 0 <= l < len(layers)
                    or not 0 <= i_ < layers[l].n_in
                    or not 0 <= j_ < layers[l].n_out):
                raise CheckpointError(f"bad pinned edge {l} {i_} {j_} {name}")
            layers[l].fixed[(i_, j_)] = FixedEdge(name, a, b, c, d)
        params = KanParams(layers)
    else:
        grids = tuple(int(g) for g in header["grids"])
        spec = NetworkSpec("fkan", widths, conversion, fkan_grids=grids)
        layers = []
        for l in range(len(widths) - 1):
            layers.append(FourierLayer(
                grid=grids[l], cos_coef=arrays[f"L{l}.cos"],
                sin_coef=arrays[f"L{l}.sin"], bias=arrays[f"L{l}.bias"],
            ))
        params = FkanParams(layers)
    return Checkpoint(spec, params, header["meta"])

