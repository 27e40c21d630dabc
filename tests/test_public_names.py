"""Every public name of exczero has a job: each name in a module's __all__
is defined, and is used by the program, not only by tests.  A name is used
when the source of another module of the package, of ``scripts/`` or of
``bench/`` refers to it (``bench/spans.py`` patches functions by their name
as a string, so strings count there), or when its own module refers to it
outside its own definition.  The allowlist holds the names kept only as
test oracles or for callers outside Python, one reason each."""

import ast
import importlib
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "exczero"

ALLOWED = {
    ("characters", "local_L"):
        "the factored L(1/2, pi_alpha x chi) of the target, against which "
        "test_target_is_the_factored_product checks mellin_target's "
        "cancelled quotient",
    ("localdist", "shell_integral"):
        "one shell of the Mellin sum: the term-by-term reference of "
        "test_exact_mellin_is_the_sum_of_its_shells",
    ("measures", "save_measure"):
        "writes the measure files that `exczero lp --measure` reads; CI's "
        "headline runs call it from the shell",
}


def _referenced(tree, strings):
    """Every identifier, attribute and imported name in tree, and with
    strings=True every string constant."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif strings and isinstance(node, ast.Constant) \
                and isinstance(node.value, str):
            out.add(node.value)
    return out


def _defined(stmt):
    """The module-level names a top-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    return set()


def _unused_public_names():
    sources = [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
               *(ROOT / "bench").glob("*.py")]
    trees = {path: ast.parse(path.read_text()) for path in sources}
    refs = {path: _referenced(tree, True) for path, tree in trees.items()}
    unused, undefined = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module("exczero." + path.stem)
        home = [(_defined(stmt), _referenced(stmt, False))
                for stmt in trees[path].body]
        for name in getattr(module, "__all__", ()):
            if not hasattr(module, name):
                undefined.append((path.stem, name))
            elsewhere = any(name in r for q, r in refs.items() if q != path)
            at_home = any(name in r for defined, r in home
                          if not defined & {name, "__all__"})
            if not (elsewhere or at_home):
                unused.add((path.stem, name))
    return unused, undefined


def test_every_public_name_is_defined_and_used():
    unused, undefined = _unused_public_names()
    assert undefined == []
    assert sorted(unused - ALLOWED.keys()) == []
    # an allowlisted name that the program uses now needs no entry
    assert sorted(ALLOWED.keys() - unused) == []
