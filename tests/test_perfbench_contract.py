"""The benchmark's tracer (perfbench/spans.py) wraps kanc from outside by
name.  These tests keep the package and the tracer in step: every name the
tracer credits or the workloads call must exist, and installing the tracer
must find no binding it cannot rewrite."""

import importlib
import re
import sys
from pathlib import Path

import pytest

import kanc.cli  # noqa: F401  (imports every kanc module)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("spans")
    finally:
        sys.path.remove(str(PERFBENCH))


def resolve(dotted: str):
    obj = sys.modules["kanc." + dotted.split(".", 1)[0]]
    for attr in dotted.split(".")[1:]:
        obj = getattr(obj, attr)
    return obj


def traced_names(spans) -> set:
    names = {fn for fns in spans.SELF_ROOTS.values() for fn in fns}
    names |= set(spans.HOOKS) | set(spans.LABELS)
    names |= {f"{mod}.{cls}.{meth}" for mod, classes in spans.METHODS.items()
              for cls, meths in classes.items() for meth in meths}
    return names | {"symbolic._score_grid"}


def test_every_traced_name_resolves(spans):
    missing = []
    for name in sorted(traced_names(spans)):
        try:
            assert callable(resolve(name))
        except AttributeError:
            missing.append(name)
    assert not missing


def test_install_and_remove_restore_every_binding(spans):
    """install() raises on a public function held where it cannot rewrite
    it (a module-level container, a class attribute, a default argument);
    remove() puts every original back."""
    before = {m: dict(vars(sys.modules[f"kanc.{m}"])) for m in spans.MODULES}
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert resolve("training.train") is not before["training"]["train"]
    finally:
        tracer.remove()
    for m in spans.MODULES:
        now = vars(sys.modules[f"kanc.{m}"])
        assert all(now[k] is v for k, v in before[m].items()), m
    trainers = resolve("training.TRAINERS")
    assert trainers["kan"] is resolve("training.train_kan")


def test_workload_calls_exist():
    """Every ``kanc`` module attribute the workloads use is still there."""
    source = (PERFBENCH / "workloads.py").read_text()
    used = set(re.findall(r"\b(cli|device|evaluate|networks|training)"
                          r"\.([A-Za-z_]\w*)", source))
    assert used
    missing = [f"{m}.{a}" for m, a in sorted(used)
               if not hasattr(sys.modules[f"kanc.{m}"], a)]
    assert not missing
