"""The library's surface: every public module-level function and class in
src/abacore is exported or used by the library itself, so code that only the
tests need lives under tests/.
"""

import ast
from pathlib import Path

import abacore

SRC = Path(abacore.__file__).parent

# kept for the planned degree-bmm suite, which needs the order e^a * a! of
# the relative Weyl group of a series
UNUSED_BY_DESIGN = {"WreathGroup"}


def unused_public_names(sources, exported):
    """Public top-level functions and classes that are neither exported nor
    referenced in code outside their own definition.

    sources maps module names to source text.  A reference is an ast Name or
    Attribute; imports and docstrings are not references.
    """
    defined = {}
    used = set()
    for module, text in sources.items():
        for stmt in ast.parse(text).body:
            owner = getattr(stmt, "name", None)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                if not owner.startswith("_"):
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
    return sorted(set(defined) - set(exported) - referenced)


def test_no_test_only_code_in_src():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    unused = unused_public_names(sources, abacore.__all__)
    assert sorted(set(unused) - UNUSED_BY_DESIGN) == []
    assert "WreathGroup" in unused  # the exception is still needed


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
        ),
        "b": (
            "from .a import imported\n"
            "import a\n"
            "def caller():\n"
            '    """Calls mentioned() and a.called()."""\n'
            "    return a.called()\n"
            "x = caller()\n"
        ),
    }
    assert unused_public_names(sources, ["exported"]) == [
        "imported",
        "mentioned",
        "recursive",
    ]
