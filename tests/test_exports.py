from __future__ import annotations

import ast
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import compactify

# __main__ runs the command line on import, and defines no exports.
MODULES = ["compactify"] + [
    f"compactify.{m.name}" for m in pkgutil.iter_modules(compactify.__path__) if m.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "a name is exported twice"
    assert [n for n in exported if not hasattr(module, n)] == []


# The benchmark harness reaches the package by name: its workloads call
# module attributes, and its tracer wraps the names in ``spans.TARGETS``.
# A name missing here fails the benchmark's runs, not its import.
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


SPANS = _load("spans")


@pytest.mark.parametrize("module,attr", [(t[0], t[1]) for t in SPANS.TARGETS])
def test_every_traced_name_resolves(module, attr):
    # The lookup Tracer.install makes: a method must sit in its class's
    # own __dict__, a function in its module.
    mod = importlib.import_module(f"compactify.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(mod, cls_name)).get(meth))
    else:
        assert callable(getattr(mod, attr, None))


def test_every_name_the_workloads_use_resolves():
    workloads = _load("workloads")
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    aliases = {
        alias.asname: importlib.import_module(alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.startswith("compactify.") and alias.asname
    }
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in aliases
    }
    assert len(used) >= 10
    assert [(a, n) for a, n in sorted(used) if not hasattr(aliases[a], n)] == []
    # Methods the workloads call on what the package hands back.
    C, IL = workloads.C, workloads.IL
    for owner, name in [
        (C.CompactificationModel, "embed"),
        (C.RemainderCluster, "center_point"),
        (IL, "lift_point"),
        (IL, "thread_residuals"),
        (C, "closure_membership"),
    ]:
        assert callable(getattr(owner, name, None)), name
