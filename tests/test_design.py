"""Source-level checks of the library's layout.

Every module-level function and class in src/hhsynth must be named somewhere
in the library besides its definition, be imported by the release gate
(tests/test_acceptance.py), or be a command (cmd_*): the library holds no
function that only its unit tests call.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def gate_imports() -> set[str]:
    """The names tests/test_acceptance.py imports from the library."""
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf8"))
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hhsynth")
        for alias in node.names
    }


def unnamed_definitions(src: Path) -> list[str]:
    """module:name of each module-level function or class whose name appears
    nowhere in the library's text but in its own definitions."""
    texts = {path.name: path.read_text(encoding="utf8") for path in sorted(src.glob("*.py"))}
    words = Counter(word for text in texts.values() for word in re.findall(r"\w+", text))
    defined = [
        (module, node.name)
        for module, text in texts.items()
        for node in ast.parse(text).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]
    definitions = Counter(name for _, name in defined)
    return [f"{module}:{name}" for module, name in defined if words[name] == definitions[name]]


def test_every_library_definition_has_a_caller():
    allowed = gate_imports()
    unused = [
        entry
        for entry in unnamed_definitions(ROOT / "src" / "hhsynth")
        if entry.split(":")[1] not in allowed and not entry.split(":")[1].startswith("cmd_")
    ]
    assert unused == []


def test_the_scan_sees_an_unused_definition(tmp_path):
    (tmp_path / "a.py").write_text("def used():\n    pass\n\n\nclass Lonely:\n    pass\n")
    (tmp_path / "b.py").write_text("from .a import used\n\nused()\n")
    assert unnamed_definitions(tmp_path) == ["a.py:Lonely"]
    assert {"infeasible_mass", "enumerate_feasible", "rows_categorical", "main"} <= gate_imports()
