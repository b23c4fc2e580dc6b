"""Every artifact's file format has one owner.

``ranging._write_lines`` writes every artifact (UTF-8, LF line ends, a final
newline) and ``ranging._write_json`` is the one JSON encoder (indent 2,
sorted keys, no NaN). The test parses ``src/pseudolat/*.py`` and requires
that no other function opens a file for writing or calls ``json.dump`` or
``json.dumps``. Files are only read.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pseudolat"

OWNERS = {("ranging.py", "_write_lines", "open"), ("ranging.py", "_write_json", "json.dumps")}


def _opens_for_writing(call: ast.Call) -> bool:
    mode = call.args[1] if len(call.args) > 1 else next((k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None:
        return False
    # A mode that is not a literal read mode may write.
    return not (isinstance(mode, ast.Constant) and set(str(mode.value)) <= set("rbt"))


def _writer_name(call: ast.Call) -> str | None:
    fn = call.func
    if isinstance(fn, ast.Name) and fn.id == "open":
        return "open" if _opens_for_writing(call) else None
    if isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name):
        name = f"{fn.value.id}.{fn.attr}"
        if name in ("json.dump", "json.dumps"):
            return name
    return None


def _write_sites() -> set:
    """(file, enclosing function, call) of every write or JSON encoding."""
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

        def visit(node, func):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func = node.name
            if isinstance(node, ast.Call):
                name = _writer_name(node)
                if name is not None:
                    sites.add((path.name, func, name))
            for child in ast.iter_child_nodes(node):
                visit(child, func)

        visit(tree, None)
    return sites


def test_only_the_ranging_writers_write_artifacts():
    assert _write_sites() == OWNERS
