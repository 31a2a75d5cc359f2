"""kanc benchmark driver: one workload, one process, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a kanc source tree; the package is imported from
``src/``.  The run sets up ``setup_samples`` times, then repeats the
workload back to back (a closed loop with a single client) until the next
repetition would end after ``--seconds``.  Every repetition's outputs are
checked.  The last line of standard output is one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
Artifacts go to a fresh directory under ``.perfbench_runs/``; only the
run's ``report.json`` (and ``spans.json`` when traced) are kept.
"""

import os

# Pin BLAS and OpenMP pools before numpy loads; recorded in every report.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in bench_spec()["workloads"]])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def import_package():
    """Import kanc from this tree's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "kanc" / "__init__.py").is_file():
        print(f"error: no kanc sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import kanc
    if Path(kanc.__file__).resolve().parent != (src / "kanc").resolve():
        print(f"error: kanc imported from {kanc.__file__}, not {src}",
              file=sys.stderr)
        raise SystemExit(2)


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def drift(workload: str, reps: list) -> list:
    """Compare artifact digests with the recorded ones, by training seed.
    A change is reported, never failed."""
    with open(BENCH / "digests.json") as fh:
        known = json.load(fh).get(workload, {})
    lines = []
    for rep in reps:
        ref = known.get(str(rep["seed"]))
        for artifact, digest in sorted(rep["digests"].items()):
            if ref is None or artifact not in ref:
                state = "unrecorded"
            else:
                state = "same" if ref[artifact] == digest else "CHANGED"
            lines.append(f"drift: {workload} seed {rep['seed']} {artifact} "
                         f"{digest[:16]} {state}")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    runs = ROOT / ".perfbench_runs"
    runs.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                                    dir=runs))
    try:
        return run(args, wl, run_dir, spans)
    finally:
        for child in run_dir.iterdir():
            if child.is_dir():
                shutil.rmtree(child)


def run(args, wl, run_dir, spans) -> int:
    states, setup_times = [], []
    for j in range(wl.setup_samples):
        t0 = time.perf_counter()
        states.append(wl.setup(args.seed, j, str(run_dir / "setup")))
        setup_times.append(time.perf_counter() - t0)

    tracer = spans.Tracer() if args.trace else None
    reps = []

    def one(k: int, traced: bool) -> None:
        rep_dir = run_dir / f"rep{len(reps)}"
        rep_dir.mkdir()
        t0 = time.perf_counter()
        if traced:
            tracer.install()
        try:
            result = wl.rep(states, k, str(rep_dir))
        except Exception:
            result = None
            print(traceback.format_exc(), file=sys.stderr)
        finally:
            if traced:
                tracer.remove()
        wall = time.perf_counter() - t0
        shutil.rmtree(rep_dir)
        reps.append({
            "k": k, "traced": traced, "wall_s": wall,
            "seed": None if result is None else result.seed,
            "result_mape": None if result is None else result.result_mape,
            "median_ceiling": None if result is None else result.median_ceiling,
            "digests": {} if result is None else result.digests,
            "failed": ([("exception", False, "see stderr")] if result is None
                       else result.failed),
        })

    # untraced: one repetition per seed; traced: each seed runs untraced
    # then traced, so the pair gives the tracing overhead
    start = time.perf_counter()
    k = 0
    while True:
        t0 = time.perf_counter()
        one(k, False)
        if args.trace:
            one(k, True)
        step = time.perf_counter() - t0
        k += 1
        if time.perf_counter() - start + step > args.seconds:
            break
    measured = time.perf_counter() - start

    # a seed seen twice must reproduce its artifacts byte for byte
    first = {}
    for rep in reps:
        if rep["seed"] is None:
            continue
        prev = first.setdefault(rep["seed"], rep)
        if prev is not rep and prev["digests"] != rep["digests"]:
            rep["failed"].append(("deterministic rerun", False,
                                  f"seed {rep['seed']} artifacts differ"))

    # one seed may end badly on a short budget; the run's median may not
    scored = [r for r in reps if r["seed"] is not None]
    if scored:
        median = statistics.median(r["result_mape"] for r in scored)
        ceiling = min(r["median_ceiling"] for r in scored)
        if not median < ceiling:
            for rep in scored:
                rep["failed"].append(("median test mape under affine-fit ceiling",
                                      False, f"{median:.6g} vs {ceiling:.6g}"))

    failed = [r for r in reps if r["failed"]]
    for rep in failed:
        for name, _, detail in rep["failed"]:
            print(f"check failed: rep {rep['k']} seed {rep['seed']}: {name} "
                  f"({detail})", file=sys.stderr)
    good = [r for r in reps if not r["failed"]]
    if not good:
        print("error: every repetition failed", file=sys.stderr)
        return 1

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "setup_s": setup_times, "measured_s": measured, "reps": reps,
    }
    untraced = [r["wall_s"] for r in reps if not r["traced"]]
    if args.trace:
        traced = [r for r in reps if r["traced"]]
        metrics = spans.layer_metrics(tracer, len(traced))
        metrics["trace.overhead_frac"] = statistics.median(
            t["wall_s"] / u for t, u in zip(traced, untraced)) - 1.0
        metrics["check.result_mape"] = statistics.median(
            r["result_mape"] for r in good)
        zero = spans.unexercised(metrics, args.workload)
        for m in zero:
            print(f"check failed: {m} reads zero on {args.workload}",
                  file=sys.stderr)
        if zero:
            failed = traced
        top, secs = spans.largest_self_time(metrics)
        report["design"] = {"largest_self_time": [top, secs],
                            "unexercised": zero,
                            "bypass_nonzero": spans.bypass_nonzero(
                                metrics, args.workload)}
        tracer.write(run_dir / "spans.json")
        units = {m["name"]: m["unit"] for m in bench_spec()["per_layer"]}
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_frac": len(good) / len(reps),
        }
        units = {m["name"]: m["unit"] for m in bench_spec()["end_to_end"]}
    report["metrics"] = metrics
    with open(run_dir / "report.json", "w") as fh:
        json.dump(report, fh, indent=1, default=str)

    print("env: " + json.dumps(report["environment"], sort_keys=True))
    for line in drift(args.workload, reps):
        print(line)
    if args.trace:
        print(f"design: largest layer self time {top} {secs:.4f} s; "
              f"nonzero where bypassed: {report['design']['bypass_nonzero'] or 'none'}")
    mapes = [r["result_mape"] for r in good]
    print(f"run: {len(reps)} reps, result_mape median {statistics.median(mapes):.6g} "
          f"range {min(mapes):.6g}..{max(mapes):.6g}, report {run_dir / 'report.json'}")
    if set(units) != set(metrics):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(metrics))}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": {m: {"value": float(metrics[m]), "unit": u}
                    for m, u in units.items()},
    }))
    return 0


def bench_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())
