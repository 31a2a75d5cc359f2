"""Span tracing of kanc, installed from outside the package.

:class:`Tracer` replaces every public module-level function of each kanc
module, plus the methods in ``METHODS``, with a wrapper that records a span
``[name, start, end, parent]``.  A function is replaced under every name it
is bound to across the package (``from .device import generate_dataset``
makes a second binding in ``training``; ``training.TRAINERS`` holds a third
kind), so no call path slips past the tracer.  Spans stay in memory until
:meth:`Tracer.write` dumps them.

:func:`layer_metrics` turns spans into the per-layer metrics.  A span's self
time is its duration minus its child spans.  A metric's time is the self
time of its root functions plus that of same-module spans beneath them, so
``evaluate.split_errors_s`` includes ``evaluate.predict``; time spent in
another module's spans is that module's.  ``training.value_grad_s``,
``symbolic.retrain_s`` and the ``cli`` command times take whole span
durations instead, because what they time is an operation across layers.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

import numpy as np

MODULES = ("diffengine", "splines", "device", "networks", "training",
           "symbolic", "evaluate", "cli")

METHODS = {
    "diffengine": {"Tape": ("forward", "backward")},
    "training": {"Objective": ("value_grad",), "Adam": ("step",)},
}

# per-layer metric -> workloads built to exercise it; a traced run fails
# when one of these reads zero on its workload
FKAN, LADDER, SR = "fkan_adam_10mv", "kan_ladder_10mv", "sr_cli_20mv"
TRAINING = (FKAN, LADDER)
EXERCISED = {
    "diffengine.forward_s": TRAINING,
    "diffengine.backward_s": TRAINING,
    "diffengine.forward_calls": TRAINING,
    "diffengine.tape_nodes": TRAINING,
    "diffengine.us_per_node": TRAINING,
    "splines.basis_s": (LADDER, SR),
    "splines.basis_calls": (LADDER, SR),
    "splines.basis_rows": (LADDER, SR),
    "splines.basis_share": (LADDER,),
    "training.value_grad_s": TRAINING + (SR,),
    "training.value_grad_calls": TRAINING + (SR,),
    "training.value_grad_ms_p50": TRAINING + (SR,),
    "training.value_grad_ms_p99": TRAINING + (SR,),
    "training.adam_step_s": (FKAN,),
    "training.lbfgs_self_s": (LADDER, SR),
    "training.lbfgs_iters": (LADDER, SR),
    "training.evals_per_iter": (LADDER, SR),
    "training.build_objective_s": TRAINING + (SR,),
    "symbolic.fit_s": (SR,),
    "symbolic.fit_calls": (SR,),
    "symbolic.candidates_scored": (SR,),
    "symbolic.edge_samples_s": (SR,),
    "symbolic.retrain_s": (SR,),
    "symbolic.extract_s": (SR,),
    "symbolic.rounds": (SR,),
    "networks.build_tape_s": TRAINING + (SR,),
    "networks.numpy_forward_s": TRAINING + (SR,),
    "networks.refine_s": (LADDER,),
    "networks.leaf_io_s": TRAINING + (SR,),
    "networks.checkpoint_io_s": TRAINING + (SR,),
    "device.generate_s": TRAINING + (SR,),
    "device.generate_calls": TRAINING + (SR,),
    "device.csv_save_s": (SR,),
    "device.csv_load_s": (SR,),
    "evaluate.split_errors_s": TRAINING + (SR,),
    "evaluate.sweep_s": (SR,),
    "cli.gen_data_s": (SR,),
    "cli.eval_s": (SR,),
    "cli.symbolic_posthoc_s": (SR,),
    "cli.symbolic_iterative_s": (SR,),
    "cli.self_s": (SR,),
}

# workload -> metric prefixes predicted to read zero on it
BYPASSED = {FKAN: ("splines.", "symbolic."), LADDER: ("symbolic.",)}

# self-time metric -> the functions whose spans it is credited from
SELF_ROOTS = {
    "diffengine.forward_s": ("diffengine.Tape.forward",),
    "diffengine.backward_s": ("diffengine.Tape.backward",),
    "splines.basis_s": ("splines.basis_matrix", "splines.basis_deriv_matrix",
                        "splines.basis_eval"),
    "training.adam_step_s": ("training.Adam.step",),
    "training.lbfgs_self_s": ("training.lbfgs_minimize",),
    "training.build_objective_s": ("training.build_grid_objective",
                                   "training.build_mse_objective"),
    "symbolic.fit_s": ("symbolic.fit_basic", "symbolic.suggest"),
    "symbolic.edge_samples_s": ("symbolic.edge_samples",),
    "symbolic.extract_s": ("symbolic.extract_formula",),
    "networks.build_tape_s": ("networks.build_forward_tape",),
    "networks.numpy_forward_s": ("networks.net_forward", "networks.kan_forward",
                                 "networks.fkan_forward", "networks.mlp_forward",
                                 "networks.kan_layer_outputs"),
    "networks.refine_s": ("networks.refine_kan",),
    "networks.leaf_io_s": ("networks.leaf_spec", "networks.leaf_values",
                           "networks.set_leaf_values"),
    "networks.checkpoint_io_s": ("networks.save_checkpoint",
                                 "networks.load_checkpoint"),
    "device.generate_s": ("device.generate_dataset",),
    "device.csv_save_s": ("device.save_dataset",),
    "device.csv_load_s": ("device.load_dataset",),
    "evaluate.split_errors_s": ("evaluate.split_errors",),
    "evaluate.sweep_s": ("evaluate.derivative_sweep",),
}

# extra counts taken from a traced call's arguments or result
HOOKS = {
    "diffengine.Tape.forward":
        lambda c, a, out: c.update({"tape_nodes": len(a[0].nodes)}),
    "splines.basis_matrix":
        lambda c, a, out: c.update({"basis_rows": out.shape[0]}),
    "splines.basis_deriv_matrix":
        lambda c, a, out: c.update({"basis_rows": out.shape[0]}),
    "training.lbfgs_minimize":
        lambda c, a, out: c.update({"lbfgs_iters": len(out[1])}),
    "symbolic.iterative_sr":
        lambda c, a, out: c.update({"rounds": len(out[1])}),
    "cli.main":
        lambda c, a, out: c.update({"nonzero_exits": int(out != 0)}),
}


# spans of these functions are named with a suffix taken from the arguments
LABELS = {"cli.cmd_symbolic": lambda args: args[0].mode}


def _module_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Wraps kanc's public functions; :meth:`install` and :meth:`remove`
    bracket the traced region and may be repeated."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []
        self._undo: list = []

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _wrap(self, name, fn, after=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        label = LABELS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span_name = name if label is None else f"{name}.{label(args)}"
            spans.append([span_name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{name}!{type(exc).__name__}"] += 1
                raise
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(counts, args, out)
            return out

        return traced

    def _count_only(self, fn, after):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            after(counts, args, out)
            return out

        return counted

    def _replacements(self, mods) -> dict:
        """Original function id -> (original, wrapper)."""
        repl = {}
        for short, mod in mods.items():
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    name = f"{short}.{attr}"
                    repl[id(fn)] = (fn, self._wrap(name, fn, HOOKS.get(name)))
        # fit_basic's inner grid scorer is counted, not timed, so that its
        # time stays in symbolic.fit_s
        score = mods["symbolic"]._score_grid
        repl[id(score)] = (score, self._count_only(
            score, lambda c, a, out: c.update(
                {"candidates_scored": len(a[3]) * len(a[4])})))
        return repl

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = {m: sys.modules[f"kanc.{m}"] for m in MODULES}
        repl = self._replacements(mods)
        for short, mod in mods.items():
            for attr, val in list(vars(mod).items()):
                if id(val) in repl and val is repl[id(val)][0]:
                    self._undo.append((setattr, mod, attr, val))
                    setattr(mod, attr, repl[id(val)][1])
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if id(item) in repl and item is repl[id(item)][0]:
                            self._undo.append((dict.__setitem__, val, key, item))
                            val[key] = repl[id(item)][1]
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    name = f"{short}.{cls_name}.{meth}"
                    fn = vars(cls)[meth]
                    self._undo.append((setattr, cls, meth, fn))
                    setattr(cls, meth, self._wrap(name, fn, HOOKS.get(name)))
        self._check_covered(mods, repl)

    def _check_covered(self, mods, repl) -> None:
        """Fail loudly if a binding that install() does not rewrite still
        holds an original: a module-level container, a class attribute or
        a default argument."""
        def holders(short, mod):
            for attr, val in vars(mod).items():
                where = f"kanc.{short}.{attr}"
                if isinstance(val, dict):
                    yield from ((where, v) for v in val.values())
                elif isinstance(val, (list, tuple, set, frozenset)):
                    yield from ((where, v) for v in val)
                elif inspect.isclass(val) and val.__module__ == mod.__name__:
                    yield from ((where, v) for v in vars(val).values())
                elif inspect.isfunction(val):
                    yield from ((where, v) for v in (val.__defaults__ or ()))
                    yield from ((where, v) for v in (val.__kwdefaults__ or {}).values())
                yield where, val

        for short, mod in mods.items():
            for where, item in holders(short, mod):
                if id(item) in repl and item is repl[id(item)][0]:
                    raise RuntimeError(f"untraced binding in {where}")

    def remove(self) -> None:
        for setter, owner, key, original in reversed(self._undo):
            setter(owner, key, original)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def layer_metrics(tracer: Tracer, n_reps: int) -> dict:
    """Per-layer metrics per traced repetition (ratios and percentiles are
    taken over all traced repetitions together)."""
    spans = tracer.spans
    names = [s[0] for s in spans]
    parents = [s[3] for s in spans]
    dur = np.array([s[2] - s[1] for s in spans], dtype=float)
    child = np.zeros(len(spans))
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += dur[i]
    self_t = dur - child

    root_of = {fn: m for m, fns in SELF_ROOTS.items() for fn in fns}
    credit: list = [None] * len(spans)
    times: Counter = Counter()
    calls: Counter = Counter(names)
    cli_self = 0.0
    for i, name in enumerate(names):
        p = parents[i]
        m = root_of.get(name)
        if m is None and p >= 0 and _module_of(names[p]) == _module_of(name):
            m = credit[p]
        credit[i] = m
        if m is not None:
            times[m] += self_t[i]
        if _module_of(name) == "cli":
            cli_self += self_t[i]

    def total(pred) -> float:
        return float(sum(dur[i] for i, n in enumerate(names) if pred(i, n)))

    vg = "training.Objective.value_grad"
    vg_ms = dur[[i for i, n in enumerate(names) if n == vg]] * 1e3
    p50, p99 = np.percentile(vg_ms, [50, 99]) if vg_ms.size else (0.0, 0.0)
    vg_in_lbfgs = sum(1 for i, n in enumerate(names) if n == vg
                      and parents[i] >= 0
                      and names[parents[i]] == "training.lbfgs_minimize")
    c = tracer.counts

    per_rep = {m: float(times[m]) for m in SELF_ROOTS}
    per_rep.update({
        "diffengine.forward_calls": calls["diffengine.Tape.forward"],
        "diffengine.tape_nodes": c["tape_nodes"],
        "diffengine.eval_errors": c["diffengine.Tape.forward!EvaluationError"],
        "splines.basis_calls": sum(calls[f] for f in SELF_ROOTS["splines.basis_s"]),
        "splines.basis_rows": c["basis_rows"],
        "training.value_grad_s": total(lambda i, n: n == vg),
        "training.value_grad_calls": calls[vg],
        "training.lbfgs_iters": c["lbfgs_iters"],
        "symbolic.fit_calls": calls["symbolic.fit_basic"],
        "symbolic.candidates_scored": c["candidates_scored"],
        "symbolic.retrain_s": total(
            lambda i, n: n == "training.run_lbfgs_stage" and parents[i] >= 0
            and _module_of(names[parents[i]]) == "symbolic"),
        "symbolic.rounds": c["rounds"],
        "device.generate_calls": calls["device.generate_dataset"],
        "cli.gen_data_s": total(lambda i, n: n == "cli.cmd_gen_data"),
        "cli.eval_s": total(lambda i, n: n == "cli.cmd_eval"),
        "cli.symbolic_posthoc_s": total(
            lambda i, n: n == "cli.cmd_symbolic.posthoc"),
        "cli.symbolic_iterative_s": total(
            lambda i, n: n == "cli.cmd_symbolic.iterative"),
        "cli.self_s": cli_self,
        "cli.nonzero_exits": c["nonzero_exits"],
    })
    out = {k: v / n_reps for k, v in per_rep.items()}
    nodes = per_rep["diffengine.tape_nodes"]
    tape_s = per_rep["diffengine.forward_s"] + per_rep["diffengine.backward_s"]
    vg_s = per_rep["training.value_grad_s"]
    iters = per_rep["training.lbfgs_iters"]
    out.update({
        "diffengine.us_per_node": tape_s / nodes * 1e6 if nodes else 0.0,
        "splines.basis_share": per_rep["splines.basis_s"] / vg_s if vg_s else 0.0,
        "training.value_grad_ms_p50": float(p50),
        "training.value_grad_ms_p99": float(p99),
        "training.evals_per_iter": vg_in_lbfgs / iters if iters else 0.0,
    })
    return out


def unexercised(metrics: dict, workload: str) -> list:
    """Metrics that read zero on a workload built to exercise them."""
    return sorted(m for m, wls in EXERCISED.items()
                  if workload in wls and not metrics.get(m))


def largest_self_time(metrics: dict) -> tuple:
    """(metric, seconds) of the largest per-layer self time."""
    best = max(list(SELF_ROOTS) + ["cli.self_s"], key=lambda m: metrics[m])
    return best, metrics[best]


def bypass_nonzero(metrics: dict, workload: str) -> list:
    """Metrics predicted to read zero on a workload that do not."""
    return sorted(m for m, v in metrics.items()
                  if m.startswith(BYPASSED.get(workload, ())) and v)
