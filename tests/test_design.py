"""Source-level checks of the library's layout.

Every module-level function and class in src/hhsynth must be referenced by
the library's code (docstrings and comments do not count), be imported by
the release gate (tests/test_acceptance.py), or be a command (cmd_*): the
library holds no function that only its unit tests call.  The modules'
relative imports, at any depth of a file, form no cycle.  Only data.py uses
the csv module, so one function decides how every CSV cell is written, and
no module imports scipy.  A Dataset is its own DatasetView, so the library
calls .to_view() once, where the benchmark's tracer times it.  Only data.py
calls np.unique or np.lexsort: DatasetView is the one distinct-row finder, and
the plain form of np.unique imports numpy.ma, which no stage may load.
"""

import ast
from collections import Counter
from graphlib import CycleError, TopologicalSorter
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
    """module:name of each module-level function or class that no code in the
    library references by name, as an attribute or in an import."""
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf8")) for path in sorted(src.glob("*.py"))
    }
    references = Counter()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references[node.id] += 1
            elif isinstance(node, ast.Attribute):
                references[node.attr] += 1
            elif isinstance(node, ast.alias):
                references[node.name] += 1
    return [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not references[node.name]
    ]


def import_graph(src: Path) -> dict[str, set[str]]:
    """Each module's relative imports: module level, in functions and under
    TYPE_CHECKING alike."""
    graph = {}
    for path in sorted(src.glob("*.py")):
        graph[path.stem] = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module:
                    graph[path.stem].add(node.module.split(".")[0])
                else:  # from . import module
                    graph[path.stem].update(alias.name for alias in node.names)
    return graph


def import_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle of the graph, or None when it has none."""
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        return exc.args[1]
    return None


def module_uses(src: Path, module: str) -> list[str]:
    """file:line of each import of the module or of a submodule of it, and of
    each module.<name> reference."""

    def named(dotted: str) -> bool:
        return dotted == module or dotted.startswith(module + ".")

    uses = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf8"))):
            if (
                isinstance(node, ast.Import) and any(named(a.name) for a in node.names)
                or isinstance(node, ast.ImportFrom) and not node.level and named(node.module)
                or isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == module
            ):
                uses.append(f"{path.name}:{node.lineno}")
    return uses


def numpy_uses(src: Path, names) -> list[str]:
    """file:line of each np.<name> or numpy.<name> reference, and of each
    import of one from numpy, for the names given."""
    uses = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf8"))):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in names
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")
                or isinstance(node, ast.ImportFrom)
                and node.module == "numpy"
                and any(alias.name in names for alias in node.names)
            ):
                uses.append(f"{path.name}:{node.lineno}")
    return uses


def to_view_calls(src: Path) -> list[str]:
    """module:line of each call of a method named to_view."""
    return [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "to_view"
    ]


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
    # a docstring or a comment that names a definition is not a reference
    (tmp_path / "c.py").write_text(
        'def mentioned():\n    pass\n\n\ndef other():\n    """Calls mentioned."""  # mentioned\n'
    )
    (tmp_path / "d.py").write_text("from . import c\n\nc.other()\n")
    assert unnamed_definitions(tmp_path) == ["a.py:Lonely", "c.py:mentioned"]
    assert {"infeasible_mass", "enumerate_feasible", "rows_categorical", "main"} <= gate_imports()


def test_the_library_imports_form_no_cycle():
    graph = import_graph(ROOT / "src" / "hhsynth")
    # the function-level imports are seen
    assert "truncated" in graph["gibbs"] and "commands" in graph["cli"]
    assert import_cycle(graph) is None


def test_the_import_scan_sees_a_cycle(tmp_path):
    # one edge inside a function, the other under TYPE_CHECKING
    (tmp_path / "a.py").write_text("def f():\n    from .b import g\n")
    (tmp_path / "b.py").write_text(
        "from typing import TYPE_CHECKING\n\nif TYPE_CHECKING:\n    from .a import f\n"
    )
    (tmp_path / "c.py").write_text("from . import a\n")
    graph = import_graph(tmp_path)
    assert graph == {"a": {"b"}, "b": {"a"}, "c": {"a"}}
    assert sorted(import_cycle(graph)[1:]) == ["a", "b"]


def test_only_data_uses_csv():
    uses = module_uses(ROOT / "src" / "hhsynth", "csv")
    assert uses and all(use.startswith("data.py:") for use in uses)


def test_the_csv_scan_sees_every_use(tmp_path):
    (tmp_path / "a.py").write_text("def f(fh):\n    import csv\n\n    return csv.writer(fh)\n")
    (tmp_path / "b.py").write_text("from csv import reader\n")
    (tmp_path / "c.py").write_text('"""Writes a csv file."""\n\ncsv_path = "x.csv"\n')
    assert module_uses(tmp_path, "csv") == ["a.py:2", "a.py:4", "b.py:1"]


def test_no_library_module_imports_scipy():
    assert module_uses(ROOT / "src" / "hhsynth", "scipy") == []


def test_the_scipy_scan_sees_every_import(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(x):\n    import scipy.special\n\n    return scipy.special.ndtri(x)\n"
    )
    (tmp_path / "b.py").write_text("from scipy import stats\n")
    (tmp_path / "c.py").write_text("from scipy.special import stdtrit\n")
    # a docstring, a name and a relative import are not uses
    (tmp_path / "d.py").write_text(
        '"""Once used scipy.special."""\n\nfrom .scipy import x\n\nscipy_free = True\n'
    )
    assert module_uses(tmp_path, "scipy") == ["a.py:2", "a.py:4", "b.py:1", "c.py:1"]


def test_only_data_finds_distinct_rows():
    uses = numpy_uses(ROOT / "src" / "hhsynth", ("unique", "lexsort"))
    assert uses and all(use.startswith("data.py:") for use in uses)


def test_the_distinct_row_scan_sees_every_use(tmp_path):
    (tmp_path / "a.py").write_text(
        "import numpy as np\n\n\ndef f(x):\n    return np.unique(x, axis=0)\n"
    )
    (tmp_path / "b.py").write_text("import numpy\n\norder = numpy.lexsort(keys)\n")
    (tmp_path / "c.py").write_text("from numpy import lexsort, unique\n")
    # a docstring, a comment, a method and another module's unique are not uses
    (tmp_path / "d.py").write_text(
        '"""Once np.unique."""\n\nx = pd.unique(y)  # np.lexsort\nz = y.unique()\n'
    )
    assert numpy_uses(tmp_path, ("unique", "lexsort")) == ["a.py:5", "b.py:3", "c.py:1"]


def test_the_library_calls_to_view_once():
    calls = to_view_calls(ROOT / "src" / "hhsynth")
    assert len(calls) == 1 and calls[0].startswith("inference.py:")


def test_the_to_view_scan_sees_every_call(tmp_path):
    (tmp_path / "a.py").write_text("def f(d):\n    v = d.to_view()\n    return g(v).to_view()\n")
    # a definition, a docstring, a name and an uncalled attribute are not calls
    (tmp_path / "b.py").write_text(
        'class D:\n    def to_view(self):\n        """Calls to_view()."""\n\n\nh = D().to_view\n'
    )
    assert to_view_calls(tmp_path) == ["a.py:2", "a.py:3"]
