"""Network families: dense MLP, spline-edge network, Fourier-edge network.

All families map a normalized (V_D, V_G) pair in [0, 1]^2 to one scalar head.
The head is interpreted through a conversion: "exp-current" heads emit
log-amperes, "charge-scale" heads emit charge in scaled units.

The spline network follows the sum-of-edge-functions construction: every
edge carries its own learnable curve ``w_b silu(x) + w_s sum_i c_i B_i(x)``
and every node adds its incoming edges plus a bias.  Edges can later be
pinned to a primitive of :data:`LIBRARY`; pinned edges keep their affine
wrapper trainable; their spline coefficients get no gradient.  Parameter
arrays are named and shaped once, by checkpoint name, in :func:`_param_table`
(tape leaves and values, checkpoints, parameter counts); on the tape a spline
layer is one ``kan_layer`` node over its four arrays.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field

import numpy as np

from . import device, splines
from .diffengine import ELEMENTWISE, Tape, _power, fourier_sum, fourier_table

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
class BasicFunction:
    """A library primitive: a power of its argument (``form`` is the
    exponent) or a function of ``diffengine.ELEMENTWISE`` (``form`` is its
    name).  Its value, tape nodes and expression all follow from ``form``."""

    name: str
    form: float | str

    def fn(self, x):
        """numpy value at ``x``, with numpy's warnings left on."""
        if isinstance(self.form, str):
            return ELEMENTWISE[self.form][0](x)
        return _power(x, self.form)

    def __call__(self, x):
        with np.errstate(all="ignore"):
            return self.fn(np.asarray(x, dtype=float))

    def build(self, tape, node: int) -> int:
        """The primitive of tape node ``node``; ``x`` adds no node."""
        if isinstance(self.form, str):
            return tape.call(node, self.form)
        return node if self.form == 1.0 else tape.pow(node, self.form)


# LIBRARY order breaks ties in ``symbolic.suggest``.
LIBRARY = tuple(BasicFunction(name, form) for name, form in (
    ("x", 1.0), ("x^2", 2.0), ("x^3", 3.0), ("1/x", -1.0), ("1/x^2", -2.0),
    ("exp", "exp"), ("log", "log"), ("sin", "sin"), ("cos", "cos"),
    ("tan", "tan"), ("tanh", "tanh"), ("atan", "atan"), ("abs", "abs"),
    ("sqrt", 0.5)))

LIBRARY_BY_NAME = {f.name: f for f in LIBRARY}


@dataclass(frozen=True)
class FixedEdge:
    """A pinned edge: output is c * f(a x + b) + d for a library primitive."""

    name: str
    a: float
    b: float
    c: float
    d: float

    def __call__(self, x):
        """Edge output; outside the primitive's domain, inf or nan, silently."""
        with np.errstate(all="ignore"):
            return self.c * LIBRARY_BY_NAME[self.name](
                self.a * np.asarray(x, dtype=float) + self.b) + self.d

    def build(self, tape, x: int, a: int, b: int, c: int, d: int) -> int:
        """Record ``c f(a x + b) + d`` over the tape nodes x, a, b, c, d."""
        inner = tape.add(tape.mul(x, a), b)
        body = LIBRARY_BY_NAME[self.name].build(tape, inner)
        return tape.add(tape.mul(body, c), d)


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

    @property
    def target(self) -> str:
        """The field the head was trained on (``meta target``)."""
        if "target" not in self.meta:
            raise CheckpointError("checkpoint has no 'meta target' entry")
        return self.meta["target"]


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
    """Trainable parameter count: the array sizes of :func:`_param_table`
    (spline coefficients at the spec's final grid, no pinned-edge numbers)."""
    return sum(math.prod(shape) for rows in _param_table(spec)
               for _, _, shape in rows)


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
    with np.errstate(all="ignore"):
        for i in range(n_in):
            basis = splines.basis_matrix(layer.knots, h[:, i])
            spline_part = basis @ layer.coeffs[i].T        # (N, n_out)
            base_part = splines.silu(h[:, i])[:, None] * layer.w_b[i][None, :]
            edges[:, i, :] = base_part + layer.w_s[i][None, :] * spline_part
        for (i, j), fx in layer.fixed.items():
            edges[:, i, j] = fx(h[:, i])
    return edges


def kan_forward(spec: NetworkSpec, params: KanParams, x):
    h, single = _as_batch(x)
    for layer in params.layers:
        h = kan_layer_outputs(layer, h).sum(axis=1) + layer.bias[None, :]
    out = h[:, 0]
    return float(out[0]) if single else out


def fkan_forward(spec: NetworkSpec, params: FkanParams, x):
    h, single = _as_batch(x)
    for layer in params.layers:
        h = fourier_sum(fourier_table(h, layer.grid), layer.cos_coef,
                        layer.sin_coef, layer.bias)
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

def _param_table(spec: NetworkSpec) -> list:
    """Per layer, the ``(checkpoint name, attribute, shape)`` of each
    parameter array, in checkpoint and leaf order.

    Dense networks hold each kind of array in a per-layer list on the
    container, the edge families on their layers.  The shapes are the
    ones the spec implies (spline coefficients at the spec's final grid).
    """
    table = []
    for l, (n_in, n_out) in enumerate(zip(spec.widths[:-1], spec.widths[1:])):
        if spec.kind == "mlp":
            rows = (("W", "weights", (n_in, n_out)), ("b", "biases", (n_out,)))
        elif spec.kind == "kan":
            n_basis = spec.grid + spec.spline_order
            rows = (("coeffs", "coeffs", (n_in, n_out, n_basis)),
                    ("w_b", "w_b", (n_in, n_out)), ("w_s", "w_s", (n_in, n_out)),
                    ("bias", "bias", (n_out,)))
        else:
            fourier = (n_out, n_in, spec.fkan_grids[l])
            rows = (("cos", "cos_coef", fourier), ("sin", "sin_coef", fourier),
                    ("bias", "bias", (n_out,)))
        table.append([(f"L{l}.{key}", attr, shape) for key, attr, shape in rows])
    return table


def _layer_arrays(spec: NetworkSpec, params, l: int) -> list:
    """``(checkpoint name, array)`` of layer ``l``'s parameter arrays."""
    if spec.kind == "mlp":
        return [(name, getattr(params, attr)[l])
                for name, attr, _ in _param_table(spec)[l]]
    return [(name, getattr(params.layers[l], attr))
            for name, attr, _ in _param_table(spec)[l]]


def _fix_names(l: int, i: int, j: int) -> list:
    """Leaf names of a pinned edge's affine numbers a, b, c and d."""
    return [f"L{l}.fix{p}.{i}.{j}" for p in "abcd"]


def leaf_values(spec: NetworkSpec, params) -> dict:
    """Every trainable array by checkpoint name, then, for a spline network,
    the four affine numbers of each pinned edge.  The arrays are the
    container's own, not copies."""
    vals = {}
    for l in range(spec.n_layers):   # none for the oracle
        vals.update(_layer_arrays(spec, params, l))
    if spec.kind == "kan":
        for l, layer in enumerate(params.layers):
            for (i, j), fx in sorted(layer.fixed.items()):
                for name, p in zip(_fix_names(l, i, j), (fx.a, fx.b, fx.c, fx.d)):
                    vals[name] = np.asarray(p)
    return vals


def leaf_spec(spec: NetworkSpec, params) -> list:
    """Ordered (name, shape) pairs for every trainable leaf, keyed like
    :func:`leaf_values`."""
    return [(name, np.shape(v)) for name, v in leaf_values(spec, params).items()]


def set_leaf_values(spec: NetworkSpec, params, vals: dict):
    """Write leaf values back into the parameter container, in place."""
    for l in range(spec.n_layers):
        for name, arr in _layer_arrays(spec, params, l):
            arr[...] = vals[name]
    if spec.kind == "kan":
        for l, layer in enumerate(params.layers):
            for (i, j), fx in layer.fixed.items():
                layer.fixed[(i, j)] = FixedEdge(
                    fx.name, *(float(vals[n]) for n in _fix_names(l, i, j)))
    return params


def build_forward_tape(tape: Tape, spec: NetworkSpec, params,
                       x_const: np.ndarray) -> int:
    """Record the network forward pass on ``tape`` for a fixed input batch,
    with one leaf per :func:`leaf_values` entry.  Returns the index of the
    (N,) output node."""
    if spec.kind not in ("mlp", "kan", "fkan"):
        raise ValueError(f"no tape builder for kind {spec.kind!r}")
    h = tape.const(x_const)
    for l in range(spec.n_layers):
        arrays = [tape.leaf(name, arr.shape)
                  for name, arr in _layer_arrays(spec, params, l)]
        if spec.kind == "mlp":
            h = tape.add(tape.matmul(h, arrays[0]), arrays[1])
            if l < spec.n_layers - 1:
                h = tape.call(h, "tanh")
        elif spec.kind == "fkan":
            h = tape.fourier(h, *arrays)
        else:
            layer = params.layers[l]
            cols, pinned = {}, {}
            for (i, j), fx in sorted(layer.fixed.items()):
                if i not in cols:
                    cols[i] = tape.column(h, i)
                pinned[i, j] = fx.build(tape, cols[i], *(
                    tape.leaf(n) for n in _fix_names(l, i, j)))
            h = tape.kan_layer(h, *arrays, layer.knots, pinned)
    return tape.reshape(h, (x_const.shape[0],))


# ----------------------------------------------------------------------
# refinement
# ----------------------------------------------------------------------

def refine_kan(params: KanParams, new_grid_size: int) -> KanParams:
    """Move every layer of a spline network to a denser grid.

    The refined knots keep every old knot, so one least-squares solve per
    layer (all edges share the design matrix) transfers the curves exactly
    up to round-off."""
    new_layers = []
    for layer in params.layers:
        kv, coeffs = splines._transfer(layer.knots, new_grid_size,
                                       layer.coeffs)
        new_layers.append(KanLayer(
            knots=kv, coeffs=coeffs, w_b=layer.w_b.copy(),
            w_s=layer.w_s.copy(), bias=layer.bias.copy(),
            fixed=dict(layer.fixed),
        ))
    return KanParams(new_layers)


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
    for l in range(spec.n_layers):
        for name, arr in _layer_arrays(spec, ck.params, l):
            _write_array(lines, name, arr)
        if spec.kind == "kan" and ck.params.layers[l].knots.interior is not None:
            _write_array(lines, f"L{l}.knots",
                         np.asarray(ck.params.layers[l].knots.interior))
    if spec.kind == "kan":
        for l, layer in enumerate(ck.params.layers):
            for (i, j), fx in sorted(layer.fixed.items()):
                lines.append(f"fixed {l} {i} {j} {fx.name} " + " ".join(
                    _fmt(p) for p in (fx.a, fx.b, fx.c, fx.d)))
    lines.append("end")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


_NON_FINITE = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}
_HEADER_KEYS = ("kind", "conversion", "widths", "activation", "spline_order",
                "grid", "grids")
_LIST_KEYS = ("widths", "grids")     # every other header line holds one value


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
    except (IndexError, TypeError, ValueError, SyntaxError) as exc:
        raise CheckpointError(f"malformed checkpoint: {exc}") from None


def _put_once(entries: dict, key, value, what: str) -> None:
    """Store a checkpoint entry; a second copy is an error, not an override."""
    if key in entries:
        raise CheckpointError(f"checkpoint repeats the {what} {key!r}")
    entries[key] = value


def _check_token_count(tok: list, count: int) -> None:
    if len(tok) != count:
        raise CheckpointError(f"a {tok[0]!r} line holds {count} tokens, not "
                              f"{len(tok)}")


def _parse_checkpoint(lines: list) -> Checkpoint:
    header: dict = {"meta": {}}
    arrays: dict = {}
    fixed: dict = {}    # (layer, i, j) -> FixedEdge
    i = 1
    while i < len(lines):
        ln = lines[i]
        if ln == "end":
            break
        tok = ln.split()
        if tok[0] == "meta":
            raw = ln.split(None, 2)[2]
            # the writer's repr of a non-finite float is not a literal
            _put_once(header["meta"], tok[1],
                      _NON_FINITE[raw] if raw in _NON_FINITE
                      else ast.literal_eval(raw), "meta key")
        elif tok[0] == "array":
            dims = tuple(int(d) for d in tok[2:])
            i += 1
            flat = np.array([float(v) for v in lines[i].split()])
            _put_once(arrays, tok[1], flat.reshape(dims), "array")
        elif tok[0] == "fixed":
            _check_token_count(tok, 9)
            _put_once(fixed, (int(tok[1]), int(tok[2]), int(tok[3])),
                      FixedEdge(tok[4], *map(float, tok[5:9])), "pinned edge")
        elif tok[0] in _HEADER_KEYS:
            if tok[0] not in _LIST_KEYS:
                _check_token_count(tok, 2)
            _put_once(header, tok[0], tok[1:], "header key")
        else:
            raise CheckpointError(f"unknown checkpoint line {ln[:40]!r}")
        i += 1
    else:
        raise CheckpointError("missing 'end' line")

    kind = header["kind"][0]
    if kind not in KINDS:
        raise CheckpointError(f"unknown kind {kind!r}")
    conversion = header["conversion"][0]
    target = header["meta"].get("target")
    if "target" in header["meta"] and (target not in device.FIELD_NAMES or
                                       conversion_for(target) != conversion):
        raise CheckpointError(f"meta target {target!r} is not a {conversion} "
                              "field")
    if kind == "oracle":
        return Checkpoint(NetworkSpec("oracle", (), conversion), None,
                          header["meta"])
    widths = tuple(int(w) for w in header["widths"])
    if kind == "mlp":
        activation = header.get("activation", ["tanh"])[0]
        if activation != "tanh":
            raise CheckpointError(f"unsupported activation {activation!r}")
        spec = NetworkSpec("mlp", widths, conversion)
    elif kind == "kan":
        spec = NetworkSpec("kan", widths, conversion,
                           spline_order=int(header["spline_order"][0]),
                           grid=int(header["grid"][0]))
    else:
        spec = NetworkSpec("fkan", widths, conversion,
                           fkan_grids=tuple(int(g) for g in header["grids"]))
    table = _param_table(spec)
    shapes = {name: shape for rows in table for name, _, shape in rows}
    if kind == "kan":   # interior knots, written only when non-uniform
        shapes.update({f"L{l}.knots": (spec.grid - 1,)
                       for l in range(spec.n_layers)})
    for name, arr in sorted(arrays.items()):
        if name not in shapes:
            raise CheckpointError(f"array {name} does not belong to the spec")
        if arr.shape != shapes[name]:
            raise CheckpointError(f"array {name} has shape {arr.shape}; "
                                  f"the spec implies {shapes[name]}")
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"array {name} holds a non-finite value")
    held = [{attr: arrays[name] for name, attr, _ in rows} for rows in table]
    if kind == "mlp":
        params = MlpParams([h["weights"] for h in held],
                           [h["biases"] for h in held])
    elif kind == "kan":
        layers = []
        for l, h in enumerate(held):
            interior = arrays.get(f"L{l}.knots")
            kv = splines.KnotVector(
                spec.grid, spec.spline_order,
                interior=None if interior is None else tuple(interior))
            layers.append(KanLayer(knots=kv, **h))
        for (l, i_, j_), fx in fixed.items():
            if (fx.name not in LIBRARY_BY_NAME or not 0 <= l < len(layers)
                    or not 0 <= i_ < layers[l].n_in
                    or not 0 <= j_ < layers[l].n_out
                    or not np.all(np.isfinite((fx.a, fx.b, fx.c, fx.d)))):
                raise CheckpointError(f"bad pinned edge {l} {i_} {j_} {fx.name}")
            layers[l].fixed[(i_, j_)] = fx
        params = KanParams(layers)
    else:
        params = FkanParams([FourierLayer(grid=g, **h)
                             for g, h in zip(spec.fkan_grids, held)])
    return Checkpoint(spec, params, header["meta"])
