"""The environment surface of ``src/repro`` (outside ``devtools``): two
variables, each read in one function, none ever written — and the doc
table lists exactly those two.  Everything else is a flag or a kwarg."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = [path for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
           if "devtools" not in path.parts]
VARIABLES = {"TRILLIONG_TELEMETRY", "TRILLIONG_LOG_LEVEL"}
READERS = {"telemetry_enabled", "configure_logging"}


def test_variables_named_in_source_are_the_documented_two():
    named = {name for path in SOURCES
             for name in re.findall(r"TRILLIONG_[A-Z_]+", path.read_text())}
    table = set(re.findall(r"^\| `(TRILLIONG_[A-Z_]+)",
                           (ROOT / "docs" / "observability.md").read_text(),
                           re.MULTILINE))
    assert named == VARIABLES
    assert table == VARIABLES


def _environment_uses(node, scope=()):
    """``(enclosing qualname, attribute, parent node)`` of every
    ``os.environ`` / ``os.getenv`` / ``os.putenv`` expression."""
    for child in ast.iter_child_nodes(node):
        if (isinstance(child, ast.Attribute)
                and isinstance(child.value, ast.Name)
                and child.value.id == "os"
                and child.attr in ("environ", "getenv", "putenv",
                                   "unsetenv")):
            yield ".".join(scope), child.attr, node
        named = isinstance(child, (ast.ClassDef, ast.FunctionDef))
        yield from _environment_uses(
            child, scope + (child.name,) if named else scope)


def test_environment_is_read_in_two_functions_and_never_written():
    uses = []
    for path in SOURCES:
        text = path.read_text()
        # No bare spelling (``from os import environ``) the walk misses.
        assert not re.search(r"(?<!os\.)\b(environ|getenv)\b", text), path
        uses += _environment_uses(ast.parse(text))
    assert {qualname for qualname, _, _ in uses} == READERS
    for qualname, attr, parent in uses:
        # One shape only, a lookup: no subscript (load, store or del),
        # no pop / update / setdefault, no putenv.
        lookup = (isinstance(parent, ast.Call) if attr == "getenv" else
                  isinstance(parent, ast.Attribute) and parent.attr == "get")
        assert lookup, (qualname, ast.unparse(parent))
