"""The library's surface: every public module-level function and class in
src/abacore is exported or used by the library itself, so code that only the
tests need lives under tests/, and every private one is used by the library,
so a helper does not outlive its last caller.
"""

import ast
from pathlib import Path

import abacore

SRC = Path(abacore.__file__).parent

# kept for the planned degree-bmm suite, which needs the order e^a * a! of
# the relative Weyl group of a series
UNUSED_BY_DESIGN = {"WreathGroup"}


def unreferenced_names(sources):
    """Top-level functions and classes that are not referenced in code
    outside their own definition.

    sources maps module names to source text.  A reference is an ast Name or
    Attribute; imports and docstrings are not references.
    """
    defined = {}
    used = set()
    for module, text in sources.items():
        for stmt in ast.parse(text).body:
            owner = getattr(stmt, "name", None)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined[owner] = module
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    used.add((module, owner, node.id))
                elif isinstance(node, ast.Attribute):
                    used.add((module, owner, node.attr))
    referenced = {
        name
        for module, owner, name in used
        if name in defined and (module, owner) != (defined[name], name)
    }
    return sorted(set(defined) - referenced)


def _library_unreferenced():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    return unreferenced_names(sources)


def test_no_test_only_code_in_src():
    unused = [
        name
        for name in _library_unreferenced()
        if not name.startswith("_") and name not in abacore.__all__
    ]
    assert sorted(set(unused) - UNUSED_BY_DESIGN) == []
    assert "WreathGroup" in unused  # the exception is still needed


def test_no_orphaned_private_helper():
    assert [name for name in _library_unreferenced() if name.startswith("_")] == []


def test_scan_counts_only_code_references():
    sources = {
        "a": (
            "def recursive(n):\n"
            "    return recursive(n - 1) if n else 0\n"
            "def mentioned():\n"
            "    pass\n"
            "def imported():\n"
            "    pass\n"
            "def called():\n"
            "    pass\n"
            "def exported():\n"
            "    pass\n"
            "class _Private:\n"
            "    pass\n"
            "def _helper():\n"
            "    return _helper\n"
        ),
        "b": (
            "from .a import imported\n"
            "import a\n"
            "def caller():\n"
            '    """Calls mentioned() and a.called()."""\n'
            "    return a.called()\n"
            "x = caller()\n"
            "def _used():\n"
            "    return a._Private\n"
        ),
    }
    assert unreferenced_names(sources) == [
        "_helper",
        "_used",
        "exported",
        "imported",
        "mentioned",
        "recursive",
    ]
