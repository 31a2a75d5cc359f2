"""Batch command-line front end.

Subcommands wire the library into reproducible runs:

* ``gen-data``  — write one voltage-grid dataset as CSV
* ``train``     — train one network (or a seed sweep) from an INI config
* ``eval``      — error summary plus derivative sweeps for a checkpoint
* ``derivs``    — gate-sweep derivative curves at fixed drain biases
* ``symbolic``  — closed-form extraction from a spline-network checkpoint
* ``report``    — combined summary table over several checkpoints

Every command writes a JSON run manifest alongside its outputs holding the
resolved configuration, the seed, content hashes of the input files, and
the output names.  Manifests carry no timestamps, so a rerun with identical
inputs produces byte-identical artifacts.

Exit codes: 0 success, 2 usage or configuration error, 3 numerical
divergence (partial artifacts are kept).
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict

from . import device, evaluate, networks, symbolic, training

try:
    from importlib.metadata import PackageNotFoundError
    from importlib.metadata import version as _pkg_version
    VERSION = _pkg_version("kanc")
except PackageNotFoundError:      # running from a source tree
    VERSION = "0.0.0"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIVERGED = 3


class ConfigError(ValueError):
    """Raised for malformed or contradictory run configuration."""


# ----------------------------------------------------------------------
# manifests
# ----------------------------------------------------------------------

def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(path, command: str, config: dict, seed,
                   inputs: list, outputs: list) -> None:
    _write_json(path, {
        "version": VERSION,
        "command": command,
        "config": config,
        "seed": seed,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": sorted(str(o) for o in outputs),
    })


def _finite(obj):
    """``obj`` with each non-finite float (a pole, a nan constant) as None."""
    if isinstance(obj, dict):
        return {key: _finite(v) for key, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _write_json(path, obj) -> None:
    """Strict JSON: a non-finite float is written as null."""
    with open(path, "w") as fh:
        fh.write(json.dumps(_finite(obj), indent=2, sort_keys=True,
                            allow_nan=False) + "\n")


# ----------------------------------------------------------------------
# train configuration: INI file merged with mirroring flags
# ----------------------------------------------------------------------

def _parse_bool(raw: str) -> bool:
    low = str(raw).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_ladder(raw) -> tuple:
    toks = [t for t in str(raw).replace(",", " ").split() if t]
    if not toks:
        raise ValueError("empty ladder")
    return tuple(int(t) for t in toks)


TRAIN_FIELDS = {
    "family": str,
    "target": str,
    "arch": str,
    "step_mv": int,
    "seed": int,
    "epochs": int,
    "full_budget": _parse_bool,
    "lr": float,
    "ladder": _parse_ladder,
}


def _check_range(name: str, value, test, need: str) -> None:
    """Reject a non-finite or out-of-range setting; None means unset."""
    if value is not None and not (math.isfinite(value) and test(value)):
        raise ConfigError(f"{name} must be a finite number {need}, "
                          f"got {value!r}")


def load_train_config(path) -> dict:
    """Parse the [train] section of an INI file into config values."""
    cp = configparser.ConfigParser()
    if not cp.read(path):
        raise ConfigError(f"cannot read config file {path!r}")
    extra = set(cp.sections()) - {"train", "run"}
    if extra:
        raise ConfigError(f"unknown config sections: {sorted(extra)}")
    if not cp.has_section("train"):
        raise ConfigError("config file needs a [train] section")
    values = {}
    for key, raw in cp.items("train"):
        if key not in TRAIN_FIELDS:
            raise ConfigError(f"unknown [train] key {key!r}")
        try:
            values[key] = TRAIN_FIELDS[key](raw)
        except ValueError:
            raise ConfigError(f"bad value for [train] {key}: {raw!r}") from None
    if cp.has_section("run"):
        for key, raw in cp.items("run"):
            if key != "out_dir":
                raise ConfigError(f"unknown [run] key {key!r}")
            values["__out_dir"] = raw
    return values


def build_train_config(args) -> tuple:
    """Resolve config file + flag overrides into (TrainConfig, out_dir)."""
    values = load_train_config(args.config) if args.config else {}
    out_dir = values.pop("__out_dir", None)
    for name in TRAIN_FIELDS:
        flag = getattr(args, name, None)
        if flag is not None:
            try:
                values[name] = (TRAIN_FIELDS[name](flag)
                                if isinstance(flag, str) else flag)
            except ValueError:   # only --ladder is parsed here
                raise ConfigError(f"bad value for --{name}: {flag!r}") from None
    if "family" not in values:
        raise ConfigError("a network family is required (flag or [train] section)")
    if args.out_dir is not None:
        out_dir = args.out_dir
    cfg = training.TrainConfig(**values)
    if cfg.family not in ("mlp", "kan", "fkan"):
        raise ConfigError(f"unknown family {cfg.family!r}")
    if cfg.target not in device.FIELD_NAMES:
        raise ConfigError(f"unknown target {cfg.target!r}; expected one of "
                          f"{', '.join(device.FIELD_NAMES)}")
    _check_range("seed", cfg.seed, lambda v: v >= 0, ">= 0")
    if cfg.step_mv not in device.TRAIN_STEPS_MV:
        raise ConfigError(f"unsupported grid step {cfg.step_mv} mV")
    try:
        spec = networks.preset(cfg.resolved_arch(), cfg.target)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if spec.kind != cfg.family:
        raise ConfigError(f"preset {cfg.resolved_arch()!r} is not a "
                          f"{cfg.family} network")
    _check_range("lr", cfg.lr, lambda v: v > 0, "> 0")
    if min(cfg.ladder) < 1 or list(cfg.ladder) != sorted(cfg.ladder):
        raise ConfigError(f"ladder must be non-decreasing sizes >= 1, got {list(cfg.ladder)}")
    _check_range("--sweep", args.sweep, lambda v: v >= 0, ">= 0")
    epochs = cfg.resolved_epochs()
    _check_range("epochs", epochs, lambda v: v >= 1, ">= 1")
    if cfg.family == "kan" and epochs < len(cfg.ladder):
        raise ConfigError(f"a kan budget of {epochs} epochs cannot cover "
                          f"{len(cfg.ladder)} ladder stages")
    return cfg, (out_dir or ".")


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    dataset = device.generate_dataset(args.step)
    device.save_dataset(dataset, args.out)
    write_manifest(str(args.out) + ".manifest.json", "gen-data",
                   {"step_mv": args.step, "out": str(args.out)}, None,
                   [], [os.path.basename(str(args.out))])
    return EXIT_OK


def cmd_train(args) -> int:
    cfg, out_dir = build_train_config(args)
    os.makedirs(out_dir, exist_ok=True)
    inputs = [args.config] if args.config else []
    outputs = []
    if args.sweep:
        rows = training.seed_sweep(cfg, args.sweep)
        for r in rows:
            ck_name = f"checkpoint_seed{r['seed']}.txt"
            log_name = f"trainlog_seed{r['seed']}.csv"
            networks.save_checkpoint(r["checkpoint"],
                                     os.path.join(out_dir, ck_name))
            training.save_trainlog(r["log"], os.path.join(out_dir, log_name))
            outputs += [ck_name, log_name]
        fmt = evaluate.csv_field
        table = [",".join([str(r["seed"]), str(int(r["diverged"])),
                           fmt(r["train_mape"]), fmt(r["test_mape"]),
                           fmt(r["final_loss"])]) for r in rows]
        evaluate.write_csv(os.path.join(out_dir, "sweep.csv"),
                           "seed,diverged,train_mape,test_mape,final_loss",
                           table)
        outputs.append("sweep.csv")
        diverged = all(r["diverged"] for r in rows)
    else:
        ck, log = training.train(cfg)
        networks.save_checkpoint(ck, os.path.join(out_dir, "checkpoint.txt"))
        training.save_trainlog(log, os.path.join(out_dir, "trainlog.csv"))
        outputs += ["checkpoint.txt", "trainlog.csv"]
        diverged = log.diverged
    write_manifest(os.path.join(out_dir, "manifest.json"), "train",
                   {**asdict(cfg), "out_dir": out_dir,
                    "sweep": int(args.sweep or 0)},
                   cfg.seed, inputs, outputs)
    return EXIT_DIVERGED if diverged else EXIT_OK


def _load_dataset_for(ck, step, data_path):
    if data_path:
        return device.load_dataset(data_path)
    if step is None and "step_mv" not in ck.meta:
        raise ConfigError("the checkpoint has no 'meta step_mv'; pass --step")
    return device.generate_dataset(
        int(ck.meta["step_mv"]) if step is None else step)


def cmd_eval(args) -> int:
    ck = networks.load_checkpoint(args.checkpoint)
    dataset = _load_dataset_for(ck, args.step, args.data)
    names = evaluate.make_report([ck], dataset, args.out_dir)
    inputs = [args.checkpoint] + ([args.data] if args.data else [])
    write_manifest(os.path.join(args.out_dir, "manifest.json"), "eval",
                   {"checkpoint": str(args.checkpoint),
                    "step_mv": dataset.step_mv},
                   ck.meta.get("seed"), inputs, names)
    return EXIT_OK


def cmd_derivs(args) -> int:
    for vd in args.vd:
        _check_range("--vd", vd, lambda v: 0.0 <= v <= device.V_MAX,
                     f"in [0, {device.V_MAX}]")
    ck = networks.load_checkpoint(args.checkpoint)
    curves = [evaluate.derivative_sweep(ck, vd) for vd in args.vd]
    os.makedirs(args.out_dir, exist_ok=True)
    outputs = []
    for vd, curve in zip(args.vd, curves):
        name = f"deriv_vd{vd:g}.csv"
        evaluate.write_sweep(os.path.join(args.out_dir, name), curve)
        outputs.append(name)
    write_manifest(os.path.join(args.out_dir, "manifest.json"), "derivs",
                   {"checkpoint": str(args.checkpoint),
                    "vd": [float(v) for v in args.vd]},
                   ck.meta.get("seed"), [args.checkpoint], outputs)
    return EXIT_OK


def cmd_symbolic(args) -> int:
    _check_range("--retrain-epochs", args.retrain_epochs, lambda v: v >= 1, ">= 1")
    _check_range("--lr", args.lr, lambda v: v > 0, "> 0")
    ck = networks.load_checkpoint(args.checkpoint)
    dataset = _load_dataset_for(ck, args.step, None)
    if args.mode == "posthoc":
        model, rounds = symbolic.posthoc_sr(ck, dataset)
    else:
        model, rounds = symbolic.iterative_sr(
            ck, dataset, k=args.k, retrain_epochs=args.retrain_epochs,
            lr=args.lr)
    os.makedirs(args.out_dir, exist_ok=True)
    with open(os.path.join(args.out_dir, "formula.txt"), "w") as fh:
        fh.write(model.text + "\n")
    test_mape = (model.mape(dataset, "test")
                 if dataset.test_inputs().shape[0] else None)
    nonfinite = model.nonfinite_points(dataset)
    if nonfinite:
        print(f"warning: the formula is not finite at {nonfinite} points of "
              f"the {device.MASTER_STEP_MV} mV master grid", file=sys.stderr)
    _write_json(os.path.join(args.out_dir, "formula.json"),
                {"target": model.target, "text": model.text,
                 "tree": model.tree.to_dict(),
                 "train_mape": model.mape(dataset, "train"),
                 "test_mape": test_mape, "nonfinite_points": nonfinite})
    table = []
    for r in rounds:
        edges = ";".join(f"{l}:{i}:{j}={name}"
                         for (l, i, j), name, _ in r["fixed"])
        table.append(",".join([str(r["round"]), edges,
                               evaluate.csv_field(r["train_mape"]),
                               str(r["retrain_epochs"]),
                               str(int(r["diverged"]))]))
    evaluate.write_csv(os.path.join(args.out_dir, "rounds.csv"),
                       "round,edges,train_mape,retrain_epochs,diverged", table)
    outputs = ["formula.txt", "formula.json", "rounds.csv"]
    write_manifest(os.path.join(args.out_dir, "manifest.json"), "symbolic",
                   {"checkpoint": str(args.checkpoint), "mode": args.mode,
                    "k": args.k, "retrain_epochs": args.retrain_epochs,
                    "step_mv": dataset.step_mv},
                   ck.meta.get("seed"), [args.checkpoint], outputs)
    return EXIT_DIVERGED if any(r["diverged"] for r in rounds) else EXIT_OK


def cmd_report(args) -> int:
    cks = [networks.load_checkpoint(p) for p in args.checkpoints]
    steps = [ck.meta.get("step_mv") for ck in cks]
    if args.step is None and len(set(steps)) > 1:
        raise ConfigError("the checkpoints were trained at different steps ("
                          + ", ".join("none" if s is None else f"{s} mV"
                                      for s in steps) + "); pass --step")
    dataset = _load_dataset_for(cks[0], args.step, None)
    names = evaluate.make_report(cks, dataset, args.out_dir)
    write_manifest(os.path.join(args.out_dir, "manifest.json"), "report",
                   {"checkpoints": [str(p) for p in args.checkpoints],
                    "step_mv": dataset.step_mv},
                   None, list(args.checkpoints), names)
    return EXIT_OK


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """A usage error is one ``error:`` line; subparsers share the class."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {message}; see '{self.prog} --help' "
                              "for usage\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kanc",
        description="Compact-model network training and analysis toolkit.")
    parser.add_argument("--version", action="version",
                        version=f"kanc {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a voltage-grid dataset CSV")
    p.add_argument("--step", type=int, required=True,
                   choices=device.TRAIN_STEPS_MV,
                   help="training-grid step in mV")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train one network or a seed sweep")
    p.add_argument("--config", help="INI file with a [train] section")
    p.add_argument("--out-dir", default=None)
    p.add_argument("--sweep", type=int, default=0, metavar="N",
                   help="train N replicas differing only in seed")
    p.add_argument("--family", choices=("mlp", "kan", "fkan"))
    p.add_argument("--target", choices=device.FIELD_NAMES)
    p.add_argument("--arch")
    p.add_argument("--step-mv", dest="step_mv", type=int,
                   choices=device.TRAIN_STEPS_MV)
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--full-budget", dest="full_budget",
                   action="store_true", default=None)
    p.add_argument("--lr", type=float)
    p.add_argument("--ladder", help="comma-separated grid sizes")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="summary errors and sweep curves")
    p.add_argument("--checkpoint", required=True)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--step", type=int, choices=device.TRAIN_STEPS_MV,
                        help="regenerate the dataset at this step")
    source.add_argument("--data", help="dataset CSV from gen-data")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("derivs", help="gate-sweep derivative curves")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vd", type=float, nargs="+",
                   default=list(evaluate.SWEEP_VDS),
                   help="fixed drain biases in volts")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_derivs)

    p = sub.add_parser("symbolic", help="closed-form extraction")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--mode", choices=("posthoc", "iterative"),
                   default="iterative")
    p.add_argument("--k", type=int, default=3,
                   help="edges pinned per round (iterative mode)")
    p.add_argument("--retrain-epochs", dest="retrain_epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--step", type=int, choices=device.TRAIN_STEPS_MV)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_symbolic)

    p = sub.add_parser("report", help="summary table over checkpoints")
    p.add_argument("--checkpoints", nargs="+", required=True)
    p.add_argument("--step", type=int, choices=device.TRAIN_STEPS_MV)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:   # --help, --version or a usage error
        return exc.code
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # each input error subclasses one
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
