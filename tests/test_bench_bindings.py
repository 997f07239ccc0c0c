"""The benchmark in perfbench/ still finds every vxp name it wraps or calls.

perfbench/spans.py swaps vxp functions for timing wrappers by name, and its
workloads call the public API directly. A refactor that renames or drops one
of those names would otherwise only fail in a traced benchmark run.
"""

import ast
import importlib
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


def test_vxp_names_used_by_workloads_exist():
    missing = []
    for name in ("workloads.py", "checks.py"):
        tree = ast.parse((PERFBENCH / name).read_text())
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "vxp":
                aliases.update({a.asname or a.name: f"vxp.{a.name}" for a in node.names})
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("vxp."):
                module = importlib.import_module(node.module)
                missing += [f"{node.module}.{a.name}" for a in node.names
                            if not hasattr(module, a.name)]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                module = importlib.import_module(aliases[node.value.id])
                if not hasattr(module, node.attr):
                    missing.append(f"{name}: {aliases[node.value.id]}.{node.attr}")
    assert not missing, missing
