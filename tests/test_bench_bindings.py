"""The benchmark in perfbench/ still finds every vxp name it wraps or calls.

perfbench/spans.py swaps vxp functions for timing wrappers by name, and its
workloads call the public API directly. A refactor that renames or drops one
of those names would otherwise only fail in a traced benchmark run.
"""

import ast
import importlib
import inspect
import types
from pathlib import Path

# Tracer.install() looks every target module up in sys.modules
from vxp import (autodiff, dataio, geometry, heads, losses, retrieval, sparse3d,
                 synthetic, trainer)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_spans() -> types.ModuleType:
    """perfbench/spans.py as a fresh module; nothing is written next to it."""
    path = PERFBENCH / "spans.py"
    module = types.ModuleType("perfbench_spans")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_tracer_installs_every_target_and_binding():
    tracer = _load_spans().Tracer()
    try:
        tracer.install()  # raises if a required binding is missing
        assert hasattr(trainer.project_voxels, "__wrapped__")
    finally:
        tracer.uninstall()
    assert trainer.project_voxels is geometry.project_voxels
    assert not hasattr(geometry.project_voxels, "__wrapped__")


def _vxp_bindings(tree: ast.Module) -> tuple[dict[str, object], list[str]]:
    """Local name -> vxp module or object, from the module's vxp imports,
    plus the `from vxp.x import y` names that vxp.x lacks."""
    bound, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "vxp":
            bound.update({a.asname or a.name: importlib.import_module(f"vxp.{a.name}")
                          for a in node.names})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("vxp."):
            module = importlib.import_module(node.module)
            for a in node.names:
                if hasattr(module, a.name):
                    bound[a.asname or a.name] = getattr(module, a.name)
                else:
                    missing.append(f"{node.module}.{a.name}")
    return bound, missing


def test_vxp_names_used_by_workloads_exist():
    missing = []
    for name in ("workloads.py", "checks.py"):
        tree = ast.parse((PERFBENCH / name).read_text())
        bound, gone = _vxp_bindings(tree)
        missing += gone
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and isinstance(bound.get(node.value.id), types.ModuleType)
                    and not hasattr(bound[node.value.id], node.attr)):
                missing.append(f"{name}: {bound[node.value.id].__name__}.{node.attr}")
    assert not missing, missing


def _dict_keywords(tree: ast.Module) -> dict[str, list[str]]:
    """Module-level `NAME = dict(key=..., ...)` assignments -> their keys."""
    out = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name) and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name) and node.value.func.id == "dict"
                and not node.value.args):
            out[node.targets[0].id] = [k.arg for k in node.value.keywords]
    return out


def test_vxp_calls_in_workloads_bind_to_signatures():
    """Every call perfbench makes to a vxp function or class binds to its
    signature: arity and keyword names. `**NAME` of a module-level dict(...)
    expands to its keys; any other `*args` or `**kwargs` binds partially."""
    bad, checked = [], 0
    for name in ("workloads.py", "checks.py"):
        tree = ast.parse((PERFBENCH / name).read_text())
        bound, _ = _vxp_bindings(tree)
        dicts = _dict_keywords(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in bound:
                target = bound[func.id]
            elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                    and isinstance(bound.get(func.value.id), types.ModuleType)):
                target = getattr(bound[func.value.id], func.attr)
            else:
                continue
            partial = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = [k.arg for k in node.keywords if k.arg is not None]
            for k in node.keywords:
                if k.arg is not None:
                    continue
                if isinstance(k.value, ast.Name) and k.value.id in dicts:
                    keywords += dicts[k.value.id]
                else:
                    partial = True
            signature = inspect.signature(target)
            bind = signature.bind_partial if partial else signature.bind
            try:
                bind(*[None] * len(node.args), **dict.fromkeys(keywords))
            except TypeError as exc:
                bad.append(f"{name}:{node.lineno}: {ast.unparse(func)}: {exc}")
            checked += 1
    assert checked > 50  # the walk found perfbench's calls
    assert not bad, bad
