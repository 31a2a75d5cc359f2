"""Closed-form extraction from trained spline networks.

Each spline edge is a scalar curve; this module matches such curves against
a small library of primitives wrapped in an affine transform,
``c * f(a x + b) + d``, pins the worst-matching edges first, retrains the
rest, and repeats until the whole network is a composition of primitives.
The result is an expression tree over the raw terminal voltages that can be
rendered, evaluated, differentiated, and exported.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from . import device, evaluate, networks, training
from .diffengine import ELEMENTWISE, _power
from .networks import Checkpoint, FixedEdge, KanParams, NetworkSpec

FIT_GRID_POINTS = 21
FIT_LEVELS = 3
FIT_RANGE = 10.0
MAX_FIT_SAMPLES = 512
# candidate rows scored at once: 64 x 512 samples is 256 KB.  With OpenBLAS
# 0.3.31, blocks of a multiple of 8 rows give the matrix-vector product the
# same rounding as one call over all candidates; 63 rows do not.
SCORE_BLOCK = 64


# ----------------------------------------------------------------------
# primitive library
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BasicFunction:
    """A library primitive: a power of its argument (``form`` is the
    exponent) or a function of ``diffengine.ELEMENTWISE`` (``form`` is its
    name).  Its numpy value, tape nodes and expression all follow from
    ``form``."""

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

    def expr(self, u: Expr) -> Expr:
        """The primitive of expression ``u``."""
        if isinstance(self.form, str):
            return Call(self.form, u)
        return u if self.form == 1.0 else Pow(u, self.form)


# LIBRARY order breaks ties in ``suggest``.
LIBRARY = tuple(BasicFunction(name, form) for name, form in (
    ("x", 1.0), ("x^2", 2.0), ("x^3", 3.0), ("1/x", -1.0), ("1/x^2", -2.0),
    ("exp", "exp"), ("log", "log"), ("sin", "sin"), ("cos", "cos"),
    ("tan", "tan"), ("tanh", "tanh"), ("atan", "atan"), ("abs", "abs"),
    ("sqrt", 0.5)))

LIBRARY_BY_NAME = {f.name: f for f in LIBRARY}


@dataclass(frozen=True)
class EdgeFit(FixedEdge):
    """Best affine-wrapped match of one primitive to one edge curve."""

    r2: float


# ----------------------------------------------------------------------
# fitting
# ----------------------------------------------------------------------

def _score_grid(xs, ys, f: BasicFunction, a_vals, b_vals):
    """Closed-form (c, d) and R^2 for every (a, b) candidate pair.

    Candidates are scored ``SCORE_BLOCK`` rows at a time, so the primitive's
    (rows, samples) matrix stays cache-sized; each block is masked and
    centered in place and reduced to its per-candidate sums."""
    aa, bb = np.meshgrid(a_vals, b_vals, indexing="ij")
    aa, bb = aa.ravel(), bb.ravel()
    valid = np.empty(aa.size, dtype=bool)
    f_bar, s_ff, s_fy = np.empty((3, aa.size))
    with np.errstate(all="ignore"):
        y_bar = ys.mean()
        yc = ys - y_bar
        s_yy = float(np.sum(yc ** 2))
        for lo in range(0, aa.size, SCORE_BLOCK):
            blk = slice(lo, lo + SCORE_BLOCK)
            big = f.fn(aa[blk, None] * xs + bb[blk, None])
            ok = np.all(np.isfinite(big), axis=1)
            big[~ok] = 0.0                       # silence dead candidates
            valid[blk] = ok
            f_bar[blk] = big.mean(axis=1)
            big -= f_bar[blk, None]
            s_ff[blk] = np.einsum("ij,ij->i", big, big)
            s_fy[blk] = big @ yc
    c = np.where((s_ff > 0) & valid, s_fy / np.where(s_ff > 0, s_ff, 1.0), 0.0)
    ss_res = s_yy - c * s_fy
    r2 = np.where(valid, 1.0 - ss_res / s_yy, -np.inf)
    r2 = np.where(np.isfinite(r2), r2, -np.inf)
    best = int(np.argmax(r2))
    d = y_bar - c[best] * f_bar[best]
    return float(aa[best]), float(bb[best]), float(c[best]), float(d), float(r2[best])


def fit_basic(xs, ys, f: BasicFunction) -> EdgeFit:
    """Fit ``c * f(a x + b) + d`` by coarse-to-fine grid search over (a, b)
    with closed-form (c, d) at each candidate."""
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    if xs.size != ys.size:
        raise ValueError("sample arrays differ in length")
    if xs.size < 8:
        raise ValueError(f"need at least 8 samples, got {xs.size}")
    with np.errstate(all="ignore"):
        spread, y_mean = np.ptp(ys), float(ys.mean())
    if spread == 0.0:
        return EdgeFit(f.name, 1.0, 0.0, 0.0, float(ys[0]), 1.0)
    a_vals = np.linspace(-FIT_RANGE, FIT_RANGE, FIT_GRID_POINTS)
    b_vals = np.linspace(-FIT_RANGE, FIT_RANGE, FIT_GRID_POINTS)
    best = (1.0, 0.0, 0.0, y_mean, -np.inf)
    half = FIT_RANGE
    for _ in range(FIT_LEVELS):
        a, b, c, d, r2 = _score_grid(xs, ys, f, a_vals, b_vals)
        if r2 > best[4]:
            best = (a, b, c, d, r2)
        half = half * (1.0 / (FIT_GRID_POINTS - 1)) * 2  # previous grid spacing
        a_vals = np.linspace(best[0] - half, best[0] + half, FIT_GRID_POINTS)
        b_vals = np.linspace(best[1] - half, best[1] + half, FIT_GRID_POINTS)
    return EdgeFit(f.name, *best)


def suggest(xs, ys) -> list:
    """All library fits for a sample set, best first; ties keep library
    order."""
    fits = [fit_basic(xs, ys, f) for f in LIBRARY]
    return sorted(fits, key=lambda fit: -fit.r2)


# ----------------------------------------------------------------------
# edges and pinning
# ----------------------------------------------------------------------

def edge_ids(params: KanParams) -> list:
    out = []
    for l, layer in enumerate(params.layers):
        for i in range(layer.n_in):
            for j in range(layer.n_out):
                out.append((l, i, j))
    return out


def edge_samples(spec: NetworkSpec, params: KanParams,
                 x_norm: np.ndarray) -> dict:
    """(input, output) sample pairs for every edge, propagated through the
    current network; batches above ``MAX_FIT_SAMPLES`` are thinned to an
    even subsample."""
    x_norm = np.asarray(x_norm, dtype=float)
    if x_norm.shape[0] > MAX_FIT_SAMPLES:
        keep = np.unique(np.linspace(0, x_norm.shape[0] - 1,
                                     MAX_FIT_SAMPLES).round().astype(int))
        x_norm = x_norm[keep]
    h = x_norm
    samples = {}
    for l, layer in enumerate(params.layers):
        edges = networks.kan_layer_outputs(layer, h)
        for i in range(layer.n_in):
            for j in range(layer.n_out):
                samples[(l, i, j)] = (h[:, i].copy(), edges[:, i, j].copy())
        h = edges.sum(axis=1) + layer.bias[None, :]
    return samples


def fix_edge(params: KanParams, edge: tuple, fit: EdgeFit) -> KanParams:
    """Pin one edge to its fitted primitive (returns a new container)."""
    l, i, j = edge
    if not (0 <= l < len(params.layers)):
        raise ValueError(f"no layer {l}")
    layer = params.layers[l]
    if not (0 <= i < layer.n_in and 0 <= j < layer.n_out):
        raise ValueError(f"no edge {edge}")
    if (i, j) in layer.fixed:
        raise ValueError(f"edge {edge} is already fixed")
    out = copy.deepcopy(params)
    out.layers[l].fixed[(i, j)] = FixedEdge(fit.name, fit.a, fit.b, fit.c,
                                            fit.d)
    return out


# ----------------------------------------------------------------------
# expression trees
# ----------------------------------------------------------------------

class Expr:
    def eval(self, env: dict):
        raise NotImplementedError

    def render(self) -> str:
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError

    def diff(self, var: str) -> "Expr":
        raise NotImplementedError


@dataclass(frozen=True)
class Num(Expr):
    value: float

    def eval(self, env):
        return self.value

    def render(self):
        # shortest text that parses back to the same float
        return repr(float(self.value))

    def to_dict(self):
        return {"op": "num", "value": self.value}

    def diff(self, var):
        return Num(0.0)


@dataclass(frozen=True)
class Var(Expr):
    name: str

    def eval(self, env):
        return np.asarray(env[self.name], dtype=float)

    def render(self):
        return self.name

    def to_dict(self):
        return {"op": "var", "name": self.name}

    def diff(self, var):
        return Num(1.0 if self.name == var else 0.0)


@dataclass(frozen=True)
class Add(Expr):
    terms: tuple

    def eval(self, env):
        out = self.terms[0].eval(env)
        for t in self.terms[1:]:
            out = out + t.eval(env)
        return out

    def render(self):
        return " + ".join(t.render() for t in self.terms)

    def to_dict(self):
        return {"op": "add", "children": [t.to_dict() for t in self.terms]}

    def diff(self, var):
        return simplify(Add(tuple(t.diff(var) for t in self.terms)))


@dataclass(frozen=True)
class Mul(Expr):
    factors: tuple

    def eval(self, env):
        out = self.factors[0].eval(env)
        for t in self.factors[1:]:
            out = out * t.eval(env)
        return out

    def render(self):
        parts = []
        for t in self.factors:
            s = t.render()
            if isinstance(t, Add):
                s = f"({s})"
            parts.append(s)
        return "*".join(parts)

    def to_dict(self):
        return {"op": "mul", "children": [t.to_dict() for t in self.factors]}

    def diff(self, var):
        terms = []
        for k in range(len(self.factors)):
            parts = list(self.factors)
            parts[k] = parts[k].diff(var)
            terms.append(Mul(tuple(parts)))
        return simplify(Add(tuple(terms)))


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: float

    def eval(self, env):
        # the primitives' own power, so an ``x^3`` or ``1/x^2`` edge is the
        # function that was fitted
        with np.errstate(all="ignore"):
            return _power(np.asarray(self.base.eval(env), dtype=float),
                          self.exponent)

    def render(self):
        b = self.base.render()
        if not isinstance(self.base, (Var, Num, Call)):
            b = f"({b})"
        p = self.exponent
        p_str = str(int(p)) if float(p).is_integer() else f"{p:g}"
        if p < 0 or not float(p).is_integer():
            return f"{b}^({p_str})"
        return f"{b}^{p_str}"

    def to_dict(self):
        return {"op": "pow", "exponent": self.exponent,
                "children": [self.base.to_dict()]}

    def diff(self, var):
        inner = self.base.diff(var)
        return simplify(Mul((Num(self.exponent),
                             Pow(self.base, self.exponent - 1.0), inner)))


@dataclass(frozen=True)
class Call(Expr):
    fname: str
    arg: Expr

    def eval(self, env):
        with np.errstate(all="ignore"):
            return _call_fn(self.fname)(np.asarray(self.arg.eval(env),
                                                   dtype=float))

    def render(self):
        return f"{self.fname}({self.arg.render()})"

    def to_dict(self):
        return {"op": "call", "fn": self.fname,
                "children": [self.arg.to_dict()]}

    def diff(self, var):
        rule = _DERIVATIVES.get(self.fname)
        if rule is None:
            raise ValueError(f"no derivative rule for {self.fname!r}")
        return simplify(Mul((rule(self.arg), self.arg.diff(var))))


def _call_fn(fname: str):
    """numpy function of a :class:`Call`: its ``ELEMENTWISE`` row, or
    ``sign``, which only appears as the derivative of ``abs``."""
    return np.sign if fname == "sign" else ELEMENTWISE[fname][0]


# derivative rule u -> f'(u) of each function a Call can name
_DERIVATIVES = {
    "exp": lambda u: Call("exp", u),
    "log": lambda u: Pow(u, -1.0),
    "sin": lambda u: Call("cos", u),
    "cos": lambda u: Mul((Num(-1.0), Call("sin", u))),
    "tan": lambda u: Add((Num(1.0), Pow(Call("tan", u), 2.0))),
    "tanh": lambda u: Add((Num(1.0),
                           Mul((Num(-1.0), Pow(Call("tanh", u), 2.0))))),
    "atan": lambda u: Pow(Add((Num(1.0), Pow(u, 2.0))), -1.0),
    "abs": lambda u: Call("sign", u),
    "sign": lambda u: Num(0.0),
}


def simplify(expr: Expr) -> Expr:
    """Constant folding and neutral-element cleanup; no algebra beyond it."""
    if isinstance(expr, Add):
        flat = []
        const = 0.0
        for t in expr.terms:
            t = simplify(t)
            if isinstance(t, Add):
                flat.extend(t.terms)
            elif isinstance(t, Num):
                const += t.value
            else:
                flat.append(t)
        if const != 0.0 or not flat:
            flat.append(Num(const))
        return flat[0] if len(flat) == 1 else Add(tuple(flat))
    if isinstance(expr, Mul):
        flat = []
        const = 1.0
        for t in expr.factors:
            t = simplify(t)
            if isinstance(t, Mul):
                for sub in t.factors:
                    if isinstance(sub, Num):
                        const *= sub.value
                    else:
                        flat.append(sub)
            elif isinstance(t, Num):
                const *= t.value
            else:
                flat.append(t)
        if const == 0.0:
            return Num(0.0)
        if const != 1.0 or not flat:
            flat.insert(0, Num(const))
        return flat[0] if len(flat) == 1 else Mul(tuple(flat))
    if isinstance(expr, Pow):
        base = simplify(expr.base)
        if isinstance(base, Num):
            with np.errstate(all="ignore"):
                val = float(_power(np.float64(base.value), expr.exponent))
            if np.isfinite(val):
                return Num(val)
        if expr.exponent == 1.0:
            return base
        return Pow(base, expr.exponent)
    if isinstance(expr, Call):
        arg = simplify(expr.arg)
        if isinstance(arg, Num):
            val = float(_call_fn(expr.fname)(arg.value))
            if np.isfinite(val):
                return Num(val)
        return Call(expr.fname, arg)
    return expr


INPUT_VARS = ("V_D", "V_G")


def extract_formula(spec: NetworkSpec, params: KanParams,
                    ablated: frozenset = frozenset()):
    """Expression tree for a fully pinned network, in raw voltages.

    First-layer affine slopes absorb the input normalization, so the tree
    evaluates directly on volts.  Edges fed by an ablated input variable are
    replaced by their value at zero input.  Returns (tree, text).
    """
    exprs: list = [Var(v) for v in INPUT_VARS]
    scales = [1.0 / device.V_MAX, 1.0 / device.V_MAX]
    for l, layer in enumerate(params.layers):
        if len(layer.fixed) != layer.n_in * layer.n_out:
            raise ValueError(f"layer {l} still has unpinned edges")
        nxt = []
        for j in range(layer.n_out):
            terms = []
            for i in range(layer.n_in):
                fx = layer.fixed[(i, j)]
                if l == 0 and INPUT_VARS[i] in ablated:
                    terms.append(Num(float(fx(0.0))))
                    continue
                inner = simplify(Add((
                    Mul((Num(fx.a * scales[i]), exprs[i])), Num(fx.b))))
                body = LIBRARY_BY_NAME[fx.name].expr(inner)
                terms.append(simplify(Add((Mul((Num(fx.c), body)),
                                           Num(fx.d)))))
            terms.append(Num(float(layer.bias[j])))
            nxt.append(simplify(Add(tuple(terms))))
        exprs = nxt
        scales = [1.0] * len(exprs)
    tree = exprs[0]
    return tree, tree.render()


# ----------------------------------------------------------------------
# symbolic models and the iterative loop
# ----------------------------------------------------------------------

@dataclass
class SymbolicModel:
    spec: NetworkSpec
    params: KanParams
    target: str
    tree: Expr = None
    text: str = ""
    ablated: frozenset = frozenset()
    fits: dict = field(default_factory=dict)

    def eval(self, v_d, v_g):
        """Evaluate the formula on raw voltages (working units)."""
        out = self.tree.eval({"V_D": np.asarray(v_d, dtype=float),
                              "V_G": np.asarray(v_g, dtype=float)})
        return np.broadcast_to(out, np.broadcast(
            np.asarray(v_d), np.asarray(v_g)).shape).astype(float)

    def nonfinite_points(self, dataset) -> int:
        """Points of the dataset's 5 mV master grid where the formula is
        inf or nan (a pole or a domain edge inside the bias box)."""
        v_d, v_g = np.meshgrid(dataset.vd_axis, dataset.vg_axis, indexing="ij")
        with np.errstate(all="ignore"):
            return int(np.sum(~np.isfinite(self.eval(v_d, v_g))))

    def mape(self, dataset, split: str = "train") -> float:
        return evaluate.split_mape(self, dataset, self.target, split)


def _model_from_params(spec, params, target, fits, ablated=frozenset()):
    tree, text = extract_formula(spec, params, ablated)
    return SymbolicModel(spec=spec, params=params, target=target, tree=tree,
                         text=text, ablated=ablated, fits=dict(fits))


def ablate_variable(model: SymbolicModel, var: str) -> SymbolicModel:
    """Replace every first-layer edge fed by ``var`` with its value at zero
    input.  Ablating twice is the same as ablating once."""
    if var not in INPUT_VARS:
        raise ValueError(f"unknown input variable {var!r}")
    ablated = model.ablated | {var}
    return _model_from_params(model.spec, model.params, model.target,
                              model.fits, frozenset(ablated))


def iterative_sr(ck: Checkpoint, dataset, k: int,
                 retrain_epochs: int | None = None, lr: float | None = None):
    """Pin the k worst-matching edges per round, retrain the remainder,
    repeat until every edge is pinned.  Returns (SymbolicModel, rounds).

    ``retrain_epochs`` defaults to a fifth of the checkpoint's training
    budget; zero skips retraining, which with k >= number of edges
    reproduces the one-shot baseline.
    """
    if ck.spec.kind != "kan":
        raise ValueError("symbolic regression applies to spline networks")
    if k < 1:
        raise ValueError("k must be positive")
    spec = ck.spec
    params = copy.deepcopy(ck.params)
    target = ck.meta.get("target", "Q_S")
    if retrain_epochs is None:
        retrain_epochs = max(1, int(ck.meta.get("epochs", 1500)) // 5)
    if lr is None:
        lr = 0.1 if target == "I_D" else 1.0
    x_norm = device.normalize_voltages(dataset.train_inputs())
    all_edges = edge_ids(params)
    fits: dict = {}
    rounds = []
    while True:
        unpinned = [e for e in all_edges
                    if (e[1], e[2]) not in params.layers[e[0]].fixed]
        if not unpinned:
            break
        samples = edge_samples(spec, params, x_norm)
        candidates = {}
        for e in unpinned:
            xs, ys = samples[e]
            candidates[e] = suggest(xs, ys)[0]
        ranked = sorted(unpinned, key=lambda e: (candidates[e].r2, e))
        chosen = ranked[:k]
        for e in chosen:
            params = fix_edge(params, e, candidates[e])
            fits[e] = candidates[e]
        retrain_losses = []
        diverged = False
        if retrain_epochs > 0:
            params, retrain_losses, diverged = training.run_lbfgs_stage(
                spec, params, dataset, target, retrain_epochs, lr)
        rounds.append({
            "round": len(rounds) + 1,
            "fixed": [(e, candidates[e].name, candidates[e].r2)
                      for e in chosen],
            # the network itself, pinned edges and all
            "train_mape": evaluate.split_mape(Checkpoint(spec, params),
                                              dataset, target),
            "retrain_epochs": len(retrain_losses),
            "diverged": diverged,
        })
    # re-read the affine parameters as retrained; edges pinned in the
    # checkpoint itself have no fit of their own
    final_fits = {}
    for (l, i, j) in all_edges:
        if (l, i, j) in fits:
            fx = params.layers[l].fixed[(i, j)]
            final_fits[(l, i, j)] = EdgeFit(fx.name, fx.a, fx.b, fx.c, fx.d,
                                            fits[(l, i, j)].r2)
    model = _model_from_params(spec, params, target, final_fits)
    return model, rounds


def posthoc_sr(ck: Checkpoint, dataset):
    """One-shot baseline: pin every edge at once, no retraining."""
    n_edges = len(edge_ids(ck.params))
    return iterative_sr(ck, dataset, k=n_edges, retrain_epochs=0)
