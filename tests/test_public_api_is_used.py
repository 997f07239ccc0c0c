"""Every public top-level function and class of the package has a caller.

A name counts as used when some module of src/vxp or perfbench/*.py refers
to it outside its own definition: by name, as an attribute or in an import.
A name that nothing uses is API to delete, unless the allowlist below keeps
it with a reason; an allowlisted name that gains a use leaves the list.
Tests do not count as users.
"""

import ast
from pathlib import Path

import vxp

ALLOWED = {
    "check_gradient": "the finite-difference gradient oracle of the test suite",
    "mul": "the elementwise product the hand-computed and finite-difference "
           "gradient tests are built on",
}


def _referenced_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def test_every_public_function_and_class_is_used():
    package = Path(vxp.__file__).resolve().parent
    trees = {path: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    used = set()
    for tree in [*trees.values(), *(ast.parse(path.read_text()) for path in
                                    sorted((package.parents[1] / "perfbench").glob("*.py")))]:
        used |= _referenced_names(tree)
    unused = {node.name: f"{path.stem}.{node.name}"
              for path, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in used}
    assert not set(unused) - set(ALLOWED), \
        f"public names nothing in src/vxp or perfbench uses: " \
        f"{sorted(unused[name] for name in set(unused) - set(ALLOWED))}"
    assert set(ALLOWED) <= set(unused), \
        f"allowed names that are used or gone: {sorted(set(ALLOWED) - set(unused))}"
