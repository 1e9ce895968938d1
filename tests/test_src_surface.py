"""Everything ``src/vecport`` defines is used by ``src/vecport`` itself.

A class field or method, or a module-level function or class, that no code
of the package references is surface kept alive only by tests, or by
nothing. Names are matched by their last part, so a method counts as used
when any attribute of that name appears; the scan is a floor, not proof of
use. Dunders are skipped: the language calls them.

Likewise a parameter with a default that no call in the package passes is an
option only tests set. A call passes it when its callee has the function's
name (a class's name for ``__init__``) and it names the parameter as a
keyword, reaches its position, or spreads ``*args`` or ``**kwargs``.
"""

import ast
from pathlib import Path

import vecport

SRC = Path(vecport.__file__).parent

# "<module>.<qualified name>", or "<module>.<function>(<parameter>)" for a
# default -> why it stays although nothing in src/ names it, or passes it.
ALLOWED: dict[str, str] = {
    "cli.main(argv)": "bench/pipeline.py and the tests drive the CLI in process",
    "liveness.solve_liveness(order)": (
        "tests vary the sweep order to show that the fixpoint does not depend on it"
    ),
}


def _definitions(tree: ast.Module):
    """(qualified name, bare name) of each module-level function and class
    and of each class's methods and annotated fields."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item.name
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{node.name}.{item.target.id}", item.target.id


def _references(tree: ast.Module):
    """Every name read, attribute, keyword argument and imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
            if node.asname:
                yield node.asname


def unreferenced(src: Path) -> list[str]:
    defined, used = [], set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defined += [(f"{path.stem}.{qual}", bare) for qual, bare in _definitions(tree)]
        used.update(_references(tree))
    return [
        qual for qual, bare in defined
        if bare not in used and not (bare.startswith("__") and bare.endswith("__"))
    ]


def _defaults(tree: ast.Module):
    """(qualified name, callee name, parameter, call position or None) of
    each parameter with a default; a keyword-only one has no position."""
    methods = {
        id(item): node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        for item in node.body if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        cls = methods.get(id(fn))
        qual = fn.name if cls is None else f"{cls}.{fn.name}"
        callee = cls if fn.name == "__init__" else fn.name
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in fn.decorator_list)
        bound = cls is not None and not static  # self or cls is not in the call
        positional = fn.args.posonlyargs + fn.args.args
        first = len(positional) - len(fn.args.defaults)
        for i in range(first, len(positional)):
            yield qual, callee, positional[i].arg, i - bound
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield qual, callee, arg.arg, None


def _calls(tree: ast.Module):
    """(callee name, positions passed, keywords passed) of every call; ``*``
    passes every position and ``**`` (keyword None) every keyword."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            spread = any(isinstance(arg, ast.Starred) for arg in node.args)
            passed = float("inf") if spread else len(node.args)
            yield name, passed, {k.arg for k in node.keywords}


def unpassed_defaults(src: Path) -> list[str]:
    defaults, calls = [], []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defaults += [(f"{path.stem}.{qual}", *rest) for qual, *rest in _defaults(tree)]
        calls += _calls(tree)
    return [
        f"{qual}({param})" for qual, callee, param, position in defaults
        if not any(
            name == callee and (param in keywords or None in keywords
                                or (position is not None and passed > position))
            for name, passed, keywords in calls
        )
    ]


def test_every_definition_in_src_is_referenced_in_src():
    assert [q for q in unreferenced(SRC) if q not in ALLOWED] == []


def test_every_default_in_src_is_passed_in_src():
    assert [q for q in unpassed_defaults(SRC) if q not in ALLOWED] == []


def test_each_allowed_entry_is_still_flagged_and_says_why():
    # An entry names something a scan still flags, and says why it stays.
    found = unreferenced(SRC) + unpassed_defaults(SRC)
    assert all(q in found and reason.strip() for q, reason in ALLOWED.items())


def test_the_scan_sees_each_kind_of_reference(tmp_path):
    (tmp_path / "a.py").write_text("from m import imported as alias\nalias()\n")
    (tmp_path / "m.py").write_text(
        "def imported(): pass\n"
        "class C:\n"
        "    field: int\n"
        "    unused_field: int\n"
        "    def method(self): return self.field\n"
        "    def __eq__(self, other): return True\n"
        "def by_keyword(): pass\n"
        "def unused(): pass\n"
        "def called(): return C(by_keyword=1).method()\n"
        "called()\n"
    )
    assert unreferenced(tmp_path) == ["m.C.unused_field", "m.unused"]


def test_the_default_scan_sees_each_way_to_pass(tmp_path):
    (tmp_path / "a.py").write_text("from m import C, f\nf(0, 1, by_keyword=2)\n")
    (tmp_path / "m.py").write_text(
        "def f(a, by_position=1, by_keyword=2, unpassed=3, *, kw_only=4): pass\n"
        "class C:\n"
        "    def __init__(self, by_position=1, unpassed=2): pass\n"
        "    def method(self, by_position=1, unpassed=2): pass\n"
        "    @staticmethod\n"
        "    def static(by_position=1, unpassed=2): pass\n"
        "def spread(a=1, b=2, *, c=3): pass\n"
        "C(1).method(1)\n"
        "C.static(1)\n"
        "spread(*args, **kwargs)\n"
    )
    assert sorted(unpassed_defaults(tmp_path)) == [
        "m.C.__init__(unpassed)", "m.C.method(unpassed)", "m.C.static(unpassed)",
        "m.f(kw_only)", "m.f(unpassed)",
    ]
