"""vxp writes files only through `dataio.write_file`.

write_file replaces a regular file with a new one rather than truncating it
and reports a failed write as an IoError naming the path. A module that
calls `write_bytes`, `write_text` or `open` in a write mode itself would
bypass both, so this scans `src/vxp/*.py` for such calls.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "vxp"
ALLOWED = {("dataio.py", "write_file")}  # (module file, enclosing function)


def _open_mode(call: ast.Call) -> ast.expr | None:
    """The mode argument of an open(...) call, if given."""
    if len(call.args) >= 2:
        return call.args[1]
    return next((k.value for k in call.keywords if k.arg in ("mode", "flags")), None)


def _writes(call: ast.Call) -> bool:
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("write_bytes", "write_text"):
        return True
    if name != "open":
        return False
    mode = _open_mode(call)
    if mode is None:
        return False  # open(path) reads
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return any(c in mode.value for c in "wax+")
    return True  # os.open flags or a mode computed at run time: assume a write


def write_calls(source: str, filename: str) -> list[str]:
    """`file:line: call` for each write outside the allowed functions."""
    found = []

    def visit(node: ast.AST, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call) and _writes(child)
                    and (filename, function) not in ALLOWED):
                found.append(f"{filename}:{child.lineno}: {ast.unparse(child.func)}")
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_only_write_file_writes():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += write_calls(path.read_text(), path.name)
    assert not found, found


def test_scanner_flags_each_kind_of_write():
    source = "\n".join([
        "Path(p).write_bytes(b'')",
        "p.write_text('')",
        "open(p, 'w')",
        "open(p, mode='ab')",
        "io.open(p, 'r+')",
        "os.open(p, os.O_WRONLY)",
        "open(p, mode)",
        "open(p)",
        "open(p, 'rb')",
        "open(p, encoding='utf-8')",
        "def write_file(p):\n    open(p, 'wb')",
    ])
    assert [f.split(":")[1] for f in write_calls(source, "other.py")] == [
        "1", "2", "3", "4", "5", "6", "7", "12"]
    assert len(write_calls(source, "dataio.py")) == 7
