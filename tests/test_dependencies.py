"""The package has no runtime dependencies: it imports only the standard
library and itself (numpy, sympy and networkx may be installed, but a
user's environment need not have them).  Nor does it carry code that only
its tests reach, or imports it does not use (nor do its tests), or asserts
that ``python -O`` would strip, or docstrings that name what it does not
define."""

import ast
import builtins
import importlib
import re
import sys
from collections import Counter
from pathlib import Path

import murlab


def test_imports_are_standard_library_or_murlab():
    for path in sorted(Path(murlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            for root in roots:
                assert root in sys.stdlib_module_names or root == "murlab", (
                    f"{path.name}:{node.lineno} imports {root}"
                )


def test_every_import_is_used():
    # An imported name is used where it appears as a name in the importing
    # module; the package's __init__ re-exports names through __all__.  The
    # test modules are held to the same rule.
    unused = []
    package = sorted(Path(murlab.__file__).parent.glob("*.py"))
    for path in package + sorted(Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported = set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used and name not in exported:
                        unused.append(f"{path.parent.name}/{path.name}:{node.lineno} {name}")
    assert not unused, f"imported but never used in the importing module: {unused}"


def test_every_export_resolves_once():
    # A stale name in __all__ breaks only ``from murlab import *``.
    missing = [name for name in murlab.__all__ if not hasattr(murlab, name)]
    repeated = [name for name, count in Counter(murlab.__all__).items() if count > 1]
    assert not missing and not repeated, f"missing {missing}, listed twice {repeated}"


def test_no_assert_statements():
    # python -O strips assert statements, so a check the package relies on
    # must raise instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(murlab.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements under src/murlab/: {found}"


def test_benchmark_imports_resolve():
    # The benchmark under perfbench/ imports package names, private ones
    # included, some inside functions; a cleanup that removes one would break
    # the benchmark while every other test passes.
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    checked, missing = [], []
    for path in sorted(bench.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "murlab"):
                continue
            for alias in node.names:
                where = f"{path.name}:{node.lineno} {node.module}.{alias.name}"
                checked.append(where)
                try:
                    module = importlib.import_module(node.module)
                    if not hasattr(module, alias.name):
                        importlib.import_module(f"{node.module}.{alias.name}")
                except ImportError:
                    missing.append(where)
    assert checked and not missing, f"perfbench/ imports names the package lacks: {missing}"


# perfbench/spans.py targets that name nothing in the package any more, each
# with what took its place; an entry that resolves again fails the test below.
SPAN_TARGETS_STALE = {
    ("engine", "minor_matrices"): "minors are packed sub-minor tables (_minors), not matrices",
    ("engine", "candidate_params"): "the delta lines (search_lines) replaced the candidate stream",
    ("engine", "algebraic_eigen_candidates"): "the algebraic points are _refine_algebraic's, off the pipeline",
    ("polynomials", "rational_roots"): "a line's eigenvalues are the integer_roots of a monic charpoly",
    ("polynomials", "root_multiplicity"): "multiplicities come from squarefree_decomposition",
    ("families", "recognize_family"): "family_matches lists every family a graph is in",
    ("graphs", "components"): "component_masks reads components as bitmasks",
    ("fixtures", "verify_fixture"): "the fixtures module was folded into the pprime verify suite",
}


def test_benchmark_span_targets_resolve():
    # The traced benchmark wraps each (module, attribute) of spans.py's
    # TARGETS and records a name it cannot find as absent, with no error; a
    # rename would silently leave its per-layer metrics reading nothing.
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    targets = next(
        ast.literal_eval(node.value)
        for node in ast.parse(spans.read_text()).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
    )
    missing = set()
    for modname, attr in targets:
        try:
            owner = importlib.import_module(f"murlab.{modname}")
        except ImportError:
            missing.add((modname, attr))
            continue
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.add((modname, attr))
    unlisted = sorted(missing - SPAN_TARGETS_STALE.keys())
    stale = sorted(SPAN_TARGETS_STALE.keys() - missing)
    assert not unlisted, f"perfbench/spans.py targets the package lacks: {unlisted}"
    assert not stale, f"listed as stale span targets, but they resolve or are no longer targets: {stale}"


# Underscore names that a package module imports from another one, each
# with its reason; an entry that is no longer imported fails the test below.
PRIVATE_IMPORTS_ALLOWED = {
    ("families", "_bits"): "the vertices of a bitmask, as graphs.py lists them",
    ("pathsearch", "_bits"): "the vertices of a bitmask, as graphs.py lists them",
    ("report", "_point_values"): "replay reads a minor's values as the minors stage does",
    ("verify", "_spreads"): "the spread-bounds suite runs one compute_mur per whole graph",
    ("matrices", "_gcd"): "rank_algebraic splits its modulus as an integer list",
    ("matrices", "_exact_div"): "rank_algebraic splits its modulus as an integer list",
}


def test_no_private_names_imported_across_modules():
    # An underscore name is a module's own; another module that needs it
    # either goes through a public name or is listed above.
    package = Path(murlab.__file__).parent
    found = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                node.level or node.module.split(".")[0] == "murlab"
            ):
                found |= {(path.stem, a.name) for a in node.names if a.name.startswith("_")}
    unlisted = sorted(found - PRIVATE_IMPORTS_ALLOWED.keys())
    stale = sorted(PRIVATE_IMPORTS_ALLOWED.keys() - found)
    assert not unlisted, f"underscore names imported from another package module: {unlisted}"
    assert not stale, f"allowed as private imports, but not imported: {stale}"


# Defined under src/murlab/ but named only outside it; a name here that the
# package comes to use, or stops defining, fails the test below.
DEAD_CODE_ALLOWED = {
    "_refine_algebraic": "perfbench/make_inputs.py builds its algebraic reports with it",
    "petersen": "perfbench/make_inputs.py builds a corpus graph with it",
}


def test_every_definition_is_used_in_the_package():
    # A module-level function or class counts as named where it appears as a
    # bare name or as an attribute of a package module (``graphs.path``); a
    # method, where it appears as an attribute.  Names inside the
    # definition itself do not count, so recursion alone keeps nothing alive.
    package = Path(murlab.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    trees = [ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))]

    def names(node, method):
        found = Counter()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found[sub.id] += 1
            elif isinstance(sub, ast.Attribute) and (
                method or isinstance(sub.value, ast.Name) and sub.value.id in modules
            ):
                found[sub.attr] += 1
        return found

    everywhere = {method: sum((names(t, method) for t in trees), Counter()) for method in (False, True)}
    unused, stale = [], set(DEAD_CODE_ALLOWED)
    for tree in trees:
        for parent in ast.walk(tree):
            for node in ast.iter_child_nodes(parent):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    continue
                name = node.name
                if name.startswith("__") and name.endswith("__"):
                    continue  # called by the language
                method = isinstance(parent, ast.ClassDef)
                if everywhere[method][name] - names(node, method)[name] > 0:
                    continue
                if name in DEAD_CODE_ALLOWED:
                    stale.discard(name)
                else:
                    unused.append(name)
    assert not unused, f"defined under src/murlab/ but never used there: {unused}"
    assert not stale, f"allowed as unused, but used or not defined under src/murlab/: {stale}"


# Double-backquoted text in package docstrings that names no definition: CLI
# words, a method of int, and a keyword argument's value.
DOCSTRING_NAMES_ALLOWED = {"mur", "batch", "--budget", "murlab verify", "to_bytes", "exact=False"}


def test_docstring_names_resolve():
    # The leading dotted name of each ``...`` (``far`` in ``far[v]``) must be
    # a module, function, class, method, variable, attribute or parameter of
    # the package, or a builtin; a rename that misses a docstring leaves it
    # naming nothing.
    package = sorted(Path(murlab.__file__).parent.glob("*.py"))
    trees = [ast.parse(path.read_text()) for path in package]
    defined = {path.stem for path in package} | set(dir(builtins))
    for node in (sub for tree in trees for sub in ast.walk(tree)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.arg):
            defined.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
    unresolved = []
    for path, tree in zip(package, trees):
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            for text in re.findall(r"``(.+?)``", ast.get_docstring(node) or "", re.S):
                head = re.match(r"[A-Za-z_][\w.]*", text)
                if text not in DOCSTRING_NAMES_ALLOWED and not (
                    head and all(part in defined for part in head.group().split("."))
                ):
                    unresolved.append(f"{path.name}: ``{text}``")
    assert not unresolved, f"docstrings name what the package does not define: {unresolved}"
