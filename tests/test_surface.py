"""The library's surface: every module-level function and class in
src/abacore, public or private, is used by the library itself, so code that
only the tests need lives under tests/ (being exported in __all__ is no use),
and a helper does not outlive its last caller.  Every public method and
property of a library class is used by the library too, and so is every
dunder method but those a table names with the operator or protocol that
calls them.  Every value type subclasses tuple and takes equality, hashing,
pickling and immutability from it, with no hand-written method for them.
Only cli.py splits or strips text: the library takes values and the CLI
parses argv text into them.  No sort in the library restates
the lexicographic order of Partition with a key on .parts.
Every name the README library table gives for a module exists there.  The
series charge e + len(e-core) is written once, and one function, the side
table, groups a series' multipartitions into blocks, which only one key kernel
counts box by box; series_blocks refuses both variants by m | e alone, without
evaluating the parameters.  Only cli.py's one writer writes stdout.  Every cache
hit ratio the benchmark's per-layer report reads belongs to a memoised
library function.  No library function is an alias that only passes its own
parameters on to another library function.  No library module imports
dataclasses, inspect, ast, dis or tokenize, and importing the CLI loads none
of them: every abacore process would pay for them at start-up.  The modules
import one another only along a pinned graph, in which blocks reads abaci
from partitions without the level-rank layer.  Every value type is built
through its checked constructor but in one place, partitions._charged, which
makes the bead maps' outputs from fields it builds itself; it makes every
charged multipartition of the library, and only the front ends cli.py and
suites.py call the checked ChargedMultiPartition.  Output is shaped
where it is printed: only cli.py and suites.py build dict literals with string
keys, so thm1's report returns tuples of library values.  The README
verify table and its bounds sentence state each SUITES row's flags, defaults
and bounds.
"""

import ast
import builtins
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import abacore
from abacore.suites import SUITES

SRC = Path(abacore.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"
LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


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


def unreferenced_methods(sources):
    """Public methods and properties of top-level classes, as "Class.name",
    that no ast Attribute references outside their own definition.

    sources maps module names to source text.  An attribute is matched by
    name alone, whatever object it is taken from.
    """
    attrs = Counter()
    methods = []
    for text in sources.values():
        tree = ast.parse(text)
        attrs.update(
            node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
        )
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                methods.extend(
                    (cls.name, item)
                    for item in cls.body
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_")
                )

    def own_references(fn):
        return sum(
            isinstance(node, ast.Attribute) and node.attr == fn.name
            for node in ast.walk(fn)
        )

    return sorted(
        f"{cls}.{fn.name}"
        for cls, fn in methods
        if attrs[fn.name] == own_references(fn)
    )


# every dunder method a library class defines that Python, not the library,
# calls, with the operator or protocol that calls it
PROTOCOL_DUNDERS = {
    "BetaSet.__new__": "the class call, and _make",
    "ChargedMultiPartition.__new__": "the class call, and _make",
    "CuspidalPairGL.__new__": "the class call, and _make",
    "Partition.__new__": "the class call",
    "IntPolynomial.__new__": "the class call",
    # only tests ask `k in beta`, but without it a namedtuple answers for the
    # pair (floor, tail): k in BetaSet(0, (2,)) would be False for k = -1
    "BetaSet.__contains__": "in",
    "Partition.__repr__": "repr(): doctests and the README",
    "Partition.__str__": "str(): the suites and the CLI name partitions",
    "IntPolynomial.__repr__": "repr(): doctests and error messages",
    "IntPolynomial.__getnewargs__": "pickle and copy: the coefficients, not the tuple",
    "IntPolynomial.__divmod__": "divmod()",
    "IntPolynomial.__mod__": "%",
}


def unaccounted_dunders(sources, protocols):
    """(unaccounted, stale): the dunder methods of top-level classes, as
    "Class.__name__", that no ast Attribute references outside their own
    definition and that protocols does not name; and the names protocols
    holds that no class defines.

    A dunder method is a def, or an alias of one (__delattr__ =
    __setattr__); __slots__ and other class data are not methods.  An
    attribute is matched by name alone, as in unreferenced_methods.
    """
    attrs = Counter()
    defined = {}
    for text in sources.values():
        tree = ast.parse(text)
        attrs.update(
            node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
        )
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for item in cls.body:
                if isinstance(item, ast.FunctionDef):
                    names = [item.name]
                elif isinstance(item, ast.Assign) and isinstance(item.value, ast.Name):
                    names = [getattr(target, "id", "") for target in item.targets]
                else:
                    continue
                for name in names:
                    if name.startswith("__") and name.endswith("__"):
                        defined[f"{cls.name}.{name}"] = name, item

    def own_references(name, item):
        return sum(
            isinstance(node, ast.Attribute) and node.attr == name
            for node in ast.walk(item)
        )

    unaccounted = sorted(
        qualified
        for qualified, (name, item) in defined.items()
        if qualified not in protocols and attrs[name] == own_references(name, item)
    )
    return unaccounted, sorted(set(protocols) - set(defined))


def _library_sources():
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def _library_unreferenced():
    return unreferenced_names(_library_sources())


def test_no_test_only_code_in_src():
    # no exemption for __all__: an exported name no command, suite or
    # library function calls is test-only code
    assert [name for name in _library_unreferenced() if not name.startswith("_")] == []


def test_no_orphaned_private_helper():
    assert [name for name in _library_unreferenced() if name.startswith("_")] == []


def test_no_orphaned_method():
    # public methods have a library caller; dunders have one too, or are
    # named in PROTOCOL_DUNDERS with what calls them
    sources = _library_sources()
    assert unreferenced_methods(sources) == []
    assert unaccounted_dunders(sources, PROTOCOL_DUNDERS) == ([], [])


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
            '__all__ = ["exported"]\n'
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


def test_scan_catches_orphaned_method():
    sources = {
        "a": (
            "class Shape:\n"
            "    @property\n"
            "    def area(self):\n"
            "        return 1\n"
            "    def scaled(self):\n"
            "        return self.scaled\n"
            "    def orphan(self):\n"
            "        return 0\n"
            "    def _private(self):\n"
            "        return 0\n"
            "    def __len__(self):\n"
            "        return 0\n"
        ),
        "b": (
            "from a import Shape\n"
            "def measure(shape):\n"
            '    """Calls shape.orphan()."""\n'
            "    orphan = shape.area\n"
            "    return orphan\n"
        ),
    }
    assert unreferenced_methods(sources) == ["Shape.orphan", "Shape.scaled"]


def test_scan_catches_unaccounted_dunder():
    sources = {
        "a": (
            "class Shape:\n"
            "    __slots__ = ()\n"
            "    def __new__(cls):\n"
            "        self = object.__new__(cls)\n"
            "        self.__post_init__()\n"
            "        return self\n"
            "    def __post_init__(self):\n"
            "        pass\n"
            "    def __len__(self):\n"
            "        return self.__len__() if False else 0\n"
            "    def __eq__(self, other):\n"
            "        return True\n"
            "    __ne__ = __eq__\n"
            "    def __iter__(self):\n"
            '        """Not a reference: shape.__len__()."""\n'
            "        return iter(())\n"
        ),
        "b": "def walk(shape):\n    return shape.__iter__()\n",
    }
    protocols = {"Shape.__new__": "the class call", "Shape.__eq__": "==", "Gone.__eq__": "=="}
    assert unaccounted_dunders(sources, protocols) == (
        ["Shape.__len__", "Shape.__ne__"],
        ["Gone.__eq__"],
    )
    # the library's own table: with BetaSet's membership test unlisted, the
    # scan names it
    library = _library_sources()
    unlisted = {k: v for k, v in PROTOCOL_DUNDERS.items() if k != "BetaSet.__contains__"}
    assert unaccounted_dunders(library, unlisted) == (["BetaSet.__contains__"], [])


# the value contract a tuple already keeps: a value type that defines one of
# these writes by hand what it would get from tuple
TUPLE_CONTRACT = ("__init__", "__eq__", "__hash__", "__reduce__", "__setattr__", "__delattr__")


def value_types(sources):
    """"module.Class" -> ClassDef for each public top-level class that no
    builtin exception class, named as a base, makes an exception.

    sources maps module names to source text.  A namedtuple made by
    assignment (HeckeParam = namedtuple(...)) is no class statement and
    defines nothing, so it is not listed.
    """
    found = {}
    for module, text in sources.items():
        for cls in ast.parse(text).body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            bases = [getattr(builtins, _dotted(b) or "", None) for b in cls.bases]
            if not any(isinstance(b, type) and issubclass(b, BaseException) for b in bases):
                found[f"{module}.{cls.name}"] = cls
    return found


def value_contract_breaches(sources):
    """"module.Class" for each value type with no base tuple or
    namedtuple(...), and "module.Class.__name__" for each name of
    TUPLE_CONTRACT its body defines, by a def or an assignment."""
    found = []
    for qualified, cls in value_types(sources).items():
        bases = [_dotted(b.func if isinstance(b, ast.Call) else b) for b in cls.bases]
        if "tuple" not in bases and "namedtuple" not in bases:
            found.append(qualified)
        for item in cls.body:
            if isinstance(item, ast.FunctionDef):
                names = [item.name]
            elif isinstance(item, ast.Assign):
                names = [getattr(target, "id", "") for target in item.targets]
            else:
                continue
            found.extend(f"{qualified}.{name}" for name in names if name in TUPLE_CONTRACT)
    return sorted(found)


def test_value_types_keep_their_contract_on_tuple():
    sources = _library_sources()
    assert sorted(value_types(sources)) == [
        "hc_series.CuspidalPairGL",
        "partitions.BetaSet",
        "partitions.ChargedMultiPartition",
        "partitions.Partition",
        "polynomials.IntPolynomial",
    ]
    assert value_contract_breaches(sources) == []


def test_scan_catches_a_hand_written_value_contract():
    sources = {
        # IntPolynomial as it was before it became its coefficient tuple
        "a": (
            "class IntPolynomial:\n"
            '    __slots__ = ("coeffs",)\n'
            "    def __init__(self, *coeffs):\n"
            '        object.__setattr__(self, "coeffs", tuple(coeffs))\n'
            "    def __setattr__(self, name, value=None):\n"
            "        raise AttributeError(name)\n"
            "    __delattr__ = __setattr__\n"
            "    def __eq__(self, other):\n"
            "        return self.coeffs == other.coeffs\n"
            "    def __hash__(self):\n"
            "        return hash(self.coeffs)\n"
            "    def __reduce__(self):\n"
            "        return IntPolynomial, self.coeffs\n"
            "class Poly(tuple):\n"
            "    __add__ = __mul__ = None\n"
            "    def __new__(cls, *coeffs):\n"
            "        return super().__new__(cls, coeffs)\n"
        ),
        "b": (
            "class Pair(namedtuple('Pair', 'x y')):\n"
            "    __hash__ = None\n"
            "class Fault(ValueError):\n"
            "    def __init__(self):\n"
            "        pass\n"
            "class _Lines(list):\n"
            "    def __init__(self):\n"
            "        pass\n"
        ),
    }
    assert sorted(value_types(sources)) == ["a.IntPolynomial", "a.Poly", "b.Pair"]
    assert value_contract_breaches(sources) == [
        "a.IntPolynomial",
        "a.IntPolynomial.__delattr__",
        "a.IntPolynomial.__eq__",
        "a.IntPolynomial.__hash__",
        "a.IntPolynomial.__init__",
        "a.IntPolynomial.__reduce__",
        "a.IntPolynomial.__setattr__",
        "b.Pair.__hash__",
    ]


def parts_sort_keys(sources):
    """"module:line" of every sorted(...) or .sort(...) call whose key=
    expression reads the attribute parts.

    Partition compares as its tuple of parts, so such a key restates the
    order Partition already has.
    """
    found = []
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                (isinstance(func, ast.Name) and func.id == "sorted")
                or (isinstance(func, ast.Attribute) and func.attr == "sort")
            ):
                continue
            for kw in node.keywords:
                if kw.arg == "key" and any(
                    isinstance(sub, ast.Attribute) and sub.attr == "parts"
                    for sub in ast.walk(kw.value)
                ):
                    found.append(f"{module}:{node.lineno}")
    return found


def test_order_lives_in_partition():
    assert parts_sort_keys(_library_sources()) == []


def test_scan_catches_parts_sort_key():
    sources = {
        "a": (
            "xs = sorted(ps, key=lambda q: q.parts)\n"
            "ps.sort(key=lambda kv: (kv[0].parts, kv[1]))\n"
            "ys = sorted(ps, key=len)\n"
            "zs = sorted(p.parts for p in ps)\n"
            "ps.sort()\n"
        ),
        "b": (
            "def f(ps):\n"
            "    return sorted(ps, reverse=True, key=lambda p: p.parts[0])\n"
        ),
    }
    assert parts_sort_keys(sources) == ["a:1", "a:2", "b:2"]


def series_charge_sites(sources):
    """"module:line" of every len(e_core(...)): the series charge
    e + len(e-core) has one home in the library, e_quotient_charged, which
    reads the core length off its own charge-0 split and makes no core."""
    found = []
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.Call) or getattr(node.func, "id", None) != "len":
                continue
            func = getattr(node.args[0], "func", None) if node.args else None
            if getattr(func, "id", getattr(func, "attr", None)) == "e_core":
                found.append(f"{module}:{node.lineno}")
    return sorted(found)


def test_series_charge_is_written_once():
    # every module, partitions included, takes the charge from
    # e_quotient_charged instead of an e-core length
    assert series_charge_sites(_library_sources()) == []


def test_scan_catches_series_charge():
    sources = {
        "a": (
            "s = e + len(e_core(p, e))\n"
            "core = e_core(p, e)\n"
            "n = len(core) + e_core(p, e).size + len(p)\n"
        ),
        "b": "def f(p, e):\n    return e + len(partitions.e_core(p, e))\n",
    }
    assert series_charge_sites(sources) == ["a:1", "b:2"]


def multipartitions_callers(sources):
    """"module.function" of each top-level function or class that calls
    multipartitions_of, by name or attribute ("module.<module>" for a call
    outside them): a series' multipartitions are numbered into blocks in one
    place, the side table, so a second grouping beside it would call them
    too."""
    found = set()
    for module, text in sources.items():
        for stmt in ast.parse(text).body:
            owner = getattr(stmt, "name", "<module>")
            for node in ast.walk(stmt):
                func = node.func if isinstance(node, ast.Call) else None
                name = getattr(func, "id", getattr(func, "attr", None))
                if name == "multipartitions_of":
                    found.add(f"{module}.{owner}")
    return sorted(found)


def test_one_block_grouping():
    # besides the side table and its memoised one-block case, only the
    # enumeration's own recursion lists them
    assert multipartitions_callers(_library_sources()) == [
        "blocks._one_block",
        "blocks._side_blocks",
        "partitions.multipartitions_of",
    ]


def test_scan_catches_second_grouping():
    sources = {
        "a": (
            "def table(e, a):\n"
            "    return len(multipartitions_of(e, a)) + len(multipartitions_of(a, e))\n"
            # a bare reference is not a call
            "def mention():\n"
            "    return multipartitions_of\n"
            "class Grouping:\n"
            "    def blocks(self):\n"
            "        return [mp for mp in partitions.multipartitions_of(2, 1)]\n"
        ),
        "b": "ALL = multipartitions_of(1, 2)\n",
    }
    assert multipartitions_callers(sources) == ["a.Grouping", "a.table", "b.<module>"]


def refusal_evaluations(sources):
    """"module.series_blocks: name" for each reference to specialization or
    _root_values, by name or attribute, inside a top-level series_blocks:
    GL and GU blocks refuse by the one test m | e, since 2 + ennola_e(m) has
    order m mod 2 * ennola_e(m), so a refusal that evaluates the parameters
    would be a second route to the same decision."""
    found = set()
    for module, text in sources.items():
        for stmt in ast.parse(text).body:
            if getattr(stmt, "name", None) != "series_blocks":
                continue
            for node in ast.walk(stmt):
                name = getattr(node, "id", getattr(node, "attr", None))
                if name in ("specialization", "_root_values"):
                    found.add(f"{module}.series_blocks: {name}")
    return sorted(found)


def test_one_refusal_route():
    assert refusal_evaluations(_library_sources()) == []


def test_scan_catches_a_second_refusal_route():
    sources = {
        # the GU refusal series_blocks made before one m | e test served both
        "a": (
            "def series_blocks(pair, m, variant=GL):\n"
            "    if variant == GU and pair.a > 0:\n"
            "        try:\n"
            "            _root_values(specialization(pair, GU), ennola_e(m))\n"
            "        except OmegaIsOne:\n"
            "            raise OmegaIsOne(f'level {m} GU blocks') from None\n"
            "    elif pair.e % m == 0:\n"
            "        raise OmegaIsOne(f'level {m} blocks')\n"
        ),
        "b": "def series_blocks(pair, m):\n    check = blocks._root_values\n",
        # the side table evaluates the GU parameters: not a refusal route
        "c": "def _side_blocks(pair, m):\n    return _root_values(specialization(pair, GU), m)\n",
    }
    assert refusal_evaluations(sources) == [
        "a.series_blocks: _root_values",
        "a.series_blocks: specialization",
        "b.series_blocks: _root_values",
    ]


def contents_loops(sources):
    """"module.function" of each top-level function or class with a loop or
    comprehension whose iterable calls _contents, by name or attribute
    ("module.<module>" for a loop outside them): the boxes of a
    multipartition are walked once per key, in the kernel that counts it, so
    a second key loop beside it would walk them too."""
    found = set()
    for module, text in sources.items():
        for stmt in ast.parse(text).body:
            owner = getattr(stmt, "name", "<module>")
            for node in ast.walk(stmt):
                if not isinstance(node, (ast.For, ast.comprehension)):
                    continue
                for sub in ast.walk(node.iter):
                    func = sub.func if isinstance(sub, ast.Call) else None
                    if getattr(func, "id", getattr(func, "attr", None)) == "_contents":
                        found.add(f"{module}.{owner}")
    return sorted(found)


def test_one_box_loop_per_key():
    # blocks.py counts every key, GL and GU alike, through _root_counts;
    # residue_multiset is the integer multiset the content lemma reads
    blocks_source = {"blocks": (SRC / "blocks.py").read_text()}
    assert contents_loops(blocks_source) == [
        "blocks._root_counts",
        "blocks.residue_multiset",
    ]


def test_scan_catches_second_key_loop():
    sources = {
        "a": (
            "def kernel(mp):\n"
            "    return [c for p in mp for c in _contents(p)]\n"
            "def fused(mp, alphas):\n"
            "    for p, alpha in zip(mp, alphas):\n"
            "        for c, k in zip(partitions._contents(p), range(9)):\n"
            "            pass\n"
            # a call that is not looped over is not a key loop
            "def size(p):\n"
            "    return len(_contents(p))\n"
            "class Table:\n"
            "    def keys(self, p):\n"
            "        return {c % 2 for c in sorted(_contents(p))}\n"
        ),
        "b": "ALL = [c for c in _contents(P)]\nfor c in _contents(Q):\n    pass\n",
    }
    assert contents_loops(sources) == ["a.Table", "a.fused", "a.kernel", "b.<module>"]


def _dotted(node):
    """"a.b.c" for a Name or a chain of Attributes on one, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def stdout_writes(text):
    """"owner: callee" for each call in one module's source that can write
    to stdout: a print without file=sys.stderr, write or writelines on
    sys.stdout, or any call given sys.stdout as an argument.  owner is the
    top-level function or class ("<module>" for a call outside them)."""
    found = []
    for stmt in ast.parse(text).body:
        owner = getattr(stmt, "name", "<module>")
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            callee = _dotted(node.func)
            given = [*node.args, *(k.value for k in node.keywords)]
            to_stderr = [
                _dotted(k.value) for k in node.keywords if k.arg == "file"
            ] == ["sys.stderr"]
            if (
                (callee == "print" and not to_stderr)
                or callee in ("sys.stdout.write", "sys.stdout.writelines")
                or "sys.stdout" in map(_dotted, given)
            ):
                found.append(f"{owner}: {callee}")
    return sorted(found)


def test_cli_writes_stdout_through_one_writer():
    sources = _library_sources()
    assert [
        f"{module}.{write}"
        for module, text in sources.items()
        for write in stdout_writes(text)
    ] == ["cli._Lines: sys.stdout.write"]
    # the one print left is cli's error line on stderr
    prints = [
        module
        for module, text in sources.items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Call) and _dotted(node.func) == "print"
    ]
    assert prints == ["cli"]


def test_scan_catches_a_second_stdout_writer():
    text = (
        "def f(x):\n    print(x)\n"
        "def g(x):\n    print(x, file=sys.stdout)\n"
        "def h(x):\n    print(x, file=sys.stderr)\n"
        "class W:\n"
        "    def w(self, lines):\n"
        "        sys.stdout.writelines(lines)\n"
        "        return sys.stdout.fileno()\n"
        "json.dump({}, sys.stdout)\n"
        "sys.stderr.write('x')\n"
    )
    assert stdout_writes(text) == [
        "<module>: json.dump",
        "W: sys.stdout.writelines",
        "f: print",
        "g: print",
    ]


def library_rows(readme):
    """(module, names) for each row of the README library table: the row's
    first cell is a backticked module name, and names lists every backticked
    identifier of the second.  Backticked text that is not a single
    identifier, a dotted name say, is not collected."""
    rows = []
    for line in readme.splitlines():
        row = re.match(r"\|\s*`(abacore\.\w+)`\s*\|(.*)\|\s*$", line)
        if row:
            rows.append((row[1], re.findall(r"`([A-Za-z_]\w*)`", row[2])))
    return rows


def stale_readme_names(readme, load):
    """"module: name" for each name of a library-table row that is neither
    an attribute of the row's module, load(module), nor a builtin."""
    return [
        f"{module}: {name}"
        for module, names in library_rows(readme)
        for name in names
        if not hasattr(load(module), name) and not hasattr(builtins, name)
    ]


def test_readme_table_names_exist():
    readme = README.read_text()
    assert [module for module, _ in library_rows(readme)] == [
        f"abacore.{name}"
        for name in (
            "partitions", "levelrank", "polynomials", "hc_series", "blocks", "suites"
        )
    ]
    assert stale_readme_names(readme, importlib.import_module) == []


def test_scan_catches_stale_readme_name():
    readme = (
        "| module | contents |\n"
        "| ------ | -------- |\n"
        "| `abacore.a` | `kept`, `gone`/`ValueError`; `\"3,1\"` text |\n"
        "| `abacore.b` | `kept` and the dotted `a.gone` |\n"
        "`abacore.a` outside the table: `missing`\n"
    )
    modules = {"abacore.a": SimpleNamespace(kept=1), "abacore.b": SimpleNamespace()}
    assert library_rows(readme) == [
        ("abacore.a", ["kept", "gone", "ValueError"]),
        ("abacore.b", ["kept"]),
    ]
    assert stale_readme_names(readme, modules.__getitem__) == [
        "abacore.a: gone",
        "abacore.b: kept",
    ]


def forwarding_aliases(sources):
    """"module.name" of every function whose body, docstring aside, is one
    return of a call to a top-level library function that passes exactly the
    function's own parameters, in any order: an alias that repeats a call
    its caller can make.

    sources maps module names to source text; the callee is matched by name,
    bare or as an attribute.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    library = {
        stmt.name
        for tree in trees.values()
        for stmt in tree.body
        if isinstance(stmt, ast.FunctionDef)
    }
    found = []
    for module, tree in trees.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
            if len(body) != 1 or not isinstance(body[0], ast.Return):
                continue
            call = body[0].value
            if not isinstance(call, ast.Call):
                continue
            callee = getattr(call.func, "id", getattr(call.func, "attr", None))
            passed = [*call.args, *(kw.value for kw in call.keywords)]
            params = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
            if callee in library and all(isinstance(a, ast.Name) for a in passed):
                if sorted(a.id for a in passed) == sorted(arg.arg for arg in params):
                    found.append(f"{module}.{fn.name}")
    return found


def test_no_forwarding_alias():
    assert forwarding_aliases(_library_sources()) == []


def test_scan_catches_forwarding_alias():
    sources = {
        "a": (
            "def qr(x, e, m):\n"
            "    return divmod(x, m)\n"
            "def qr_inv(q, r, e, m):\n"
            '    """Inverse of qr."""\n'
            "    return qr(q, r, m, e)\n"
            "def keyed(x, m):\n"
            "    return qr(x, m=m)\n"
            "def extra(x, m):\n"
            "    return qr(x, 1, m)\n"
            "def dropped(x, e, m):\n"
            "    return qr(x, m)\n"
            "def checked(x, m):\n"
            "    assert m\n"
            "    return qr(x, m)\n"
            "def documented(x, m):\n"
            '    """Only a docstring."""\n'
        ),
        "b": (
            "import a\n"
            "def swapped(m, x):\n"
            "    return a.qr(x, m)\n"
            "def builtin(x, m):\n"
            "    return divmod(x, m)\n"
            "def composed(x, m):\n"
            "    return a.qr(abs(x), m)\n"
        ),
    }
    assert forwarding_aliases(sources) == ["a.qr_inv", "a.keyed", "b.swapped"]


def unmemoised_hit_ratios(reported, load):
    """"layer.name" for each name of reported (layer -> name -> stats, the
    shape of perfbench's REPORTED) that has a hit_ratio stat but is not an
    lru_cache-wrapped function of load(f"abacore.{layer}"): its ratio would
    read 0 on every workload."""
    found = []
    for layer, names in reported.items():
        module = load(f"abacore.{layer}")
        for name, stats in names.items():
            fn = getattr(module, name, None)
            memoised = hasattr(fn, "cache_info") and hasattr(fn, "__wrapped__")
            if "hit_ratio" in stats and not memoised:
                found.append(f"{layer}.{name}")
    return found


def test_reported_hit_ratios_are_memoised():
    # perfbench/layers.py is read, not edited: it imports only the stdlib
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    ratios = [
        name
        for names in layers.REPORTED.values()
        for name, stats in names.items()
        if "hit_ratio" in stats
    ]
    assert "e_core" in ratios and "hc_pairs" in ratios
    assert unmemoised_hit_ratios(layers.REPORTED, importlib.import_module) == []


def test_scan_catches_unmemoised_hit_ratio():
    def cached(x):
        return x

    cached.cache_info = lambda: (0, 0)
    cached.__wrapped__ = cached
    reported = {
        "a": {"kept": ("hit_ratio",), "plain": ("calls", "hit_ratio"), "timed": ("calls",)},
        "b": {"gone": ("hit_ratio",)},
    }
    modules = {
        "abacore.a": SimpleNamespace(kept=cached, plain=len, timed=len),
        "abacore.b": SimpleNamespace(),
    }
    assert unmemoised_hit_ratios(reported, modules.__getitem__) == ["a.plain", "b.gone"]


# stdlib modules that cost start-up time in every process that imports them
STARTUP_HEAVY = (
    "dataclasses", "inspect", "ast", "dis", "tokenize",
    "fractions", "decimal", "numbers", "typing",
)


def heavy_imports(sources):
    """"module:line" of each import statement, at any depth, that reads a
    STARTUP_HEAVY module or a submodule of one.  Relative imports name
    modules of the package, not of the stdlib, and are not collected."""
    found = []
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] in STARTUP_HEAVY for name in names):
                found.append(f"{module}:{node.lineno}")
    return found


def test_library_imports_nothing_heavy():
    assert heavy_imports(_library_sources()) == []


def test_scan_catches_a_heavy_import():
    sources = {
        "a": "from dataclasses import dataclass\nimport json, inspect\nimport astral\n",
        "b": (
            "from . import dis\n"
            "from .ast import parse\n"
            "def f():\n"
            "    import tokenize.x as t\n"
            "    return t\n"
        ),
    }
    assert heavy_imports(sources) == ["a:1", "a:2", "b:4"]


def test_cli_import_loads_nothing_heavy():
    # modules a bare interpreter already loaded (through site, say) are not
    # the library's doing; only what the import adds counts
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import abacore.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    child = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert child.returncode == 0, child.stderr
    added = set(child.stdout.split())
    assert "abacore.cli" in added
    assert sorted(added & set(STARTUP_HEAVY)) == []


# module -> the abacore modules it imports: the layers from partitions up to
# the suites and the CLI.  blocks reads abaci from partitions, not through
# the level-rank layer, and nothing below the suites imports them.
IMPORT_GRAPH = {
    "__init__": ["blocks", "hc_series", "levelrank", "partitions", "polynomials"],
    "__main__": ["cli"],
    "blocks": ["hc_series", "partitions", "polynomials"],
    "cli": ["blocks", "hc_series", "levelrank", "partitions", "suites"],
    "hc_series": ["partitions"],
    "levelrank": ["partitions"],
    "partitions": [],
    "polynomials": ["partitions"],
    "suites": ["blocks", "hc_series", "levelrank", "partitions", "polynomials"],
}


def module_imports(sources):
    """Each module's sorted list of the abacore modules it imports anywhere
    in its source, relatively ("from .levelrank import uglov", "from . import
    cli") or by the package name ("import abacore.cli", "from abacore import
    blocks")."""
    graph = {}
    for module, text in sources.items():
        found = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                dotted = [alias.name.split(".") for alias in node.names]
                found.update(d[1] for d in dotted if d[0] == "abacore" and len(d) > 1)
            elif isinstance(node, ast.ImportFrom):
                path = node.module.split(".") if node.module else []
                if node.level == 0:
                    if path[:1] != ["abacore"]:
                        continue
                    path = path[1:]
                if path:
                    found.add(path[0])
                else:
                    found.update(alias.name for alias in node.names)
        graph[module] = sorted(found)
    return graph


def test_import_graph():
    assert module_imports(_library_sources()) == IMPORT_GRAPH


def test_scan_catches_a_new_import():
    blocks = (SRC / "blocks.py").read_text()
    planted = {"blocks": blocks + "from .levelrank import uglov\n"}
    assert module_imports(planted)["blocks"] == [
        "hc_series", "levelrank", "partitions", "polynomials"
    ]
    sources = {
        "a": (
            "import json, abacore.cli\n"
            "from abacore import blocks, suites\n"
            "from abacore.hc_series import hc_pairs\n"
            "from collections import Counter\n"
            "def f():\n"
            "    from . import levelrank\n"
            "    from .partitions.sub import x\n"
        ),
        # the package itself is no module of it
        "b": "import abacore\nimport abacorex.cli\n",
    }
    assert module_imports(sources) == {
        "a": ["blocks", "cli", "hc_series", "levelrank", "partitions", "suites"],
        "b": [],
    }


def unchecked_builds(sources):
    """"module.owner" for each call tuple.__new__(X, ...) or
    super().__new__(X, ...) whose first argument is not the name cls: a value
    built around its own class's checked __new__.  owner is the top-level
    function or class ("<module>" for a call outside them)."""
    found = []
    for module, text in sources.items():
        for stmt in ast.parse(text).body:
            owner = getattr(stmt, "name", "<module>")
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                builds = _dotted(func) == "tuple.__new__" or (
                    isinstance(func, ast.Attribute)
                    and func.attr == "__new__"
                    and isinstance(func.value, ast.Call)
                    and _dotted(func.value.func) == "super"
                )
                first = node.args[0] if node.args else None
                if builds and getattr(first, "id", None) != "cls":
                    found.append(f"{module}.{owner}")
    return sorted(found)


def test_one_unchecked_builder():
    assert unchecked_builds(_library_sources()) == ["partitions._charged"]


def test_scan_catches_a_second_unchecked_builder():
    sources = {
        "a": (
            "class Checked(tuple):\n"
            "    def __new__(cls, xs):\n"
            "        return tuple.__new__(cls, xs)\n"
            "class Sub(Checked):\n"
            "    def __new__(cls, xs):\n"
            "        return super().__new__(cls, xs)\n"
            "    def raw(self, xs):\n"
            "        return super().__new__(Sub, xs)\n"
            "def build(xs):\n"
            "    return tuple.__new__(Checked, xs)\n"
            "def checked(xs):\n"
            "    return Checked.__new__(Checked, xs)\n"
        ),
        "b": "V = tuple.__new__(*ARGS)\nW = object.__new__(V)\n",
    }
    assert unchecked_builds(sources) == ["a.Sub", "a.build", "b.<module>"]


def checked_charged_builds(sources):
    """"module.owner" for each call of ChargedMultiPartition, by name or
    attribute: the library makes every charged multipartition through
    partitions._charged, so only the front ends call the checked
    constructor.  owner is the top-level function or class ("<module>" for
    a call outside them)."""
    found = set()
    for module, text in sources.items():
        for stmt in ast.parse(text).body:
            owner = getattr(stmt, "name", "<module>")
            for node in ast.walk(stmt):
                func = node.func if isinstance(node, ast.Call) else None
                if getattr(func, "id", getattr(func, "attr", None)) == "ChargedMultiPartition":
                    found.add(f"{module}.{owner}")
    return sorted(found)


def test_charged_multipartitions_come_from_charged():
    # validation at the API boundary: the front ends check what the user
    # gives, and the library's own outputs are built from fields _charged makes
    found = checked_charged_builds(_library_sources())
    assert [name for name in found if not name.startswith(("cli.", "suites."))] == []
    assert {"cli._cmd_uglov", "suites._roundtrip_cases"} <= set(found)


def test_scan_catches_a_checked_charged_build():
    sources = {
        # the rotation e_quotient_charged made before one affine correction
        "a": (
            "def e_quotient_charged(p, e):\n"
            "    components, charges = _charged(regroup(_abaci((p,), (0,)), e))\n"
            "    return ChargedMultiPartition(components[1:] + components[:1], charges)\n"
            # a docstring, a bare reference and a subclass build nothing
            "def mention():\n"
            "    \"ChargedMultiPartition((p,), (0,))\"\n"
            "    return ChargedMultiPartition\n"
            "class Image(ChargedMultiPartition):\n"
            "    pass\n"
        ),
        "b": "ONE = partitions.ChargedMultiPartition((P,), (0,))\n",
    }
    assert checked_charged_builds(sources) == ["a.e_quotient_charged", "b.<module>"]


def string_keyed_dicts(sources):
    """"module.owner" for each top-level function or class ("<module>" for
    code outside them) that builds a dict literal with a string-constant
    key: a JSON object shaped for output."""
    found = set()
    for module, text in sources.items():
        for stmt in ast.parse(text).body:
            owner = getattr(stmt, "name", "<module>")
            for node in ast.walk(stmt):
                if isinstance(node, ast.Dict) and any(
                    isinstance(key, ast.Constant) and isinstance(key.value, str)
                    for key in node.keys
                ):
                    found.add(f"{module}.{owner}")
    return sorted(found)


def test_output_is_shaped_in_the_front_ends():
    # the library computes and the command and the suites print
    found = string_keyed_dicts(_library_sources())
    assert [name for name in found if not name.startswith(("cli.", "suites."))] == []
    assert {"cli._cmd_series", "suites._thm1_cases"} <= set(found)


def test_scan_catches_a_string_keyed_dict():
    sources = {
        "a": (
            "def shaped(p):\n"
            "    return [{'core': str(p)}]\n"
            # non-string keys, comprehensions and dict() calls shape no output
            "def counts(xs):\n"
            "    return {1: 2, None: 3}, {x: 0 for x in xs}, dict(n=1), {}\n"
            "class Report:\n"
            "    def data(self, rest):\n"
            "        return {**rest, 'pass': True}\n"
        ),
        "b": "TABLE = {'thm1': 1}\n",
    }
    assert string_keyed_dicts(sources) == ["a.Report", "a.shaped", "b.<module>"]


TEXT_METHODS = ("split", "rsplit", "splitlines", "strip", "lstrip", "rstrip")


def text_parsing_calls(sources):
    """"module:line" of every call of a splitting or stripping method
    (.split(, .strip( and their variants), whatever object it is taken
    from: argv text is parsed in cli.py alone, and the library takes
    values."""
    found = []
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in TEXT_METHODS
            ):
                found.append(f"{module}:{node.lineno}")
    return found


def test_text_is_parsed_only_in_the_cli():
    found = text_parsing_calls(_library_sources())
    assert [site for site in found if not site.startswith("cli:")] == []
    assert found  # the CLI's own parsers are seen


def test_scan_catches_a_planted_parser():
    sources = {
        "a": (
            "def parse(text):\n"
            '    """Splits text.split(",") into ints."""\n'
            "    return tuple(int(tok) for tok in text.strip().split(','))\n"
            # a bare reference and other str methods parse nothing
            "SPLIT = str.split\n"
            "name = flag.replace('_', '-').upper()\n"
        ),
        "b": "def rows(doc):\n    return [line.rstrip() for line in doc.splitlines()]\n",
    }
    assert text_parsing_calls(sources) == ["a:3", "a:3", "b:2", "b:2"]


def _row_flags(cell):
    """{flag: default text} of one README verify-table flags cell, such as
    "`--max-n 12`, `--e`/`--m` unset"; flags spelled as run_suite's keywords."""
    flags = {}
    for item in cell.split(","):
        unset = item.strip().endswith(" unset")
        for name, value in re.findall(r"`--([\w-]+)(?: ([^`]+))?`", item):
            flags[name.replace("-", "_")] = "unset" if unset and not value else value
    return flags


def suite_table_mismatches(readme, suites):
    """What the README verify table and its bounds sentence get wrong about
    suites, a SUITES-like {suite: (generator, {flag: (default, bound)})}:
    a suite without exactly one row, a row of no suite, a row whose flags or
    defaults differ from the suite's ("unset" for None), and a bound the
    sentence states that no suite has, or one it leaves out."""
    rows = {}
    for line in readme.splitlines():
        row = re.match(r"\|\s*`([a-z][\w-]*)`\s*\|[^|]*\|(.*)\|\s*$", line)
        if row:
            rows.setdefault(row[1], []).append(_row_flags(row[2]))
    problems = [f"{suite}: not a suite" for suite in rows if suite not in suites]
    for suite, (_, flags) in suites.items():
        expected = {
            flag: "unset" if default is None else str(default)
            for flag, (default, _) in flags.items()
        }
        found = rows.get(suite, [])
        if len(found) != 1:
            problems.append(f"{suite}: {len(found)} rows")
        elif found[0] != expected:
            problems.append(f"{suite}: {found[0]} in the README, {expected} declared")
    text = " ".join(readme.split())
    sentence = re.search(
        r"Each suite's bounds are declared in its `SUITES` row: (.*?) exit 2[^;]*;"
        r" (.*?) is unbounded",
        text,
    )
    if sentence is None:
        return problems + ["no bounds sentence"]
    stated = {
        (name.replace("-", "_"), int(bound.replace(",", "")))
        for names, bound in re.findall(r"((?:`--[\w-]+`/?)+) above ([\d,]+)", sentence[1])
        for name in re.findall(r"`--([\w-]+)`", names)
    }
    stated |= {
        (name.replace("-", "_"), None)
        for name in re.findall(r"`--([\w-]+)`", sentence[2])
    }
    declared = {
        (flag, bound) for _, flags in suites.values() for flag, (_, bound) in flags.items()
    }
    if stated != declared:
        problems.append(
            f"bounds: stated {sorted(stated - declared, key=str)},"
            f" declared {sorted(declared - stated, key=str)}"
        )
    return problems


def test_readme_suite_table_matches_suites():
    assert suite_table_mismatches(README.read_text(), SUITES) == []


def test_scan_catches_a_stale_suite_row():
    suites = {
        "one": (None, {"max_n": (10, 16)}),
        "two-b": (None, {"seed": (7, None), "e": (None, 40), "m": (None, 40)}),
    }
    readme = (
        "| suite | checks | flags and defaults |\n"
        "| ----- | ------ | ------------------ |\n"
        "| `one`   | one check      | `--max-n 10` |\n"
        "| `two-b` | a check, and b | `--seed 7`, `--e`/`--m` unset |\n"
        "\n"
        "Each suite's bounds are declared in its `SUITES` row: `--max-n` above 16\n"
        "and `--e`/`--m` above 40 exit 2 with empty stdout; `--seed` is unbounded.\n"
    )
    assert suite_table_mismatches(readme, suites) == []
    row_one = "| `one`   | one check      | `--max-n 10` |\n"
    edits = {
        "`--max-n 10`": "`--max-n 12`",  # a wrong default
        row_one: "",  # a missing suite
        "\n\n": "\n| `three` | c | `--max-n 10` |\n\n",  # a row of no suite
        "`--seed 7`, `--e`/`--m` unset": "`--seed 7`, `--e` unset",  # a missing flag
        "above 16": "above 15",  # a wrong bound
    }
    found = [suite_table_mismatches(readme.replace(*edit), suites) for edit in edits.items()]
    assert found == [
        ["one: {'max_n': '12'} in the README, {'max_n': '10'} declared"],
        ["one: 0 rows"],
        ["three: not a suite"],
        [
            "two-b: {'seed': '7', 'e': 'unset'} in the README,"
            " {'seed': '7', 'e': 'unset', 'm': 'unset'} declared"
        ],
        ["bounds: stated [('max_n', 15)], declared [('max_n', 16)]"],
    ]
    assert suite_table_mismatches(readme + row_one, suites) == ["one: 2 rows"]
    assert suite_table_mismatches(readme.replace("Each", "No"), suites) == [
        "no bounds sentence"
    ]
