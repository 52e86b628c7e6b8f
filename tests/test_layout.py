"""Nothing in src/orthosplines exists for the tests alone, and scipy has one owner.

Every public top-level function and class, and every non-dunder method, must
be named somewhere in the package outside its own definition, as a Name, an
Attribute or an import alias.  A method's own definition includes the
statements of its class body outside every method, so an alias there
(``__call__ = eval``) does not reach it.  A helper only tests call belongs in
tests/oracles.py.  Only bspline imports from scipy, and only the LAPACK band
routines, which it loads from scipy's LAPACK extension without importing
scipy.linalg.  Every backticked ``module.name`` in README.md and in the
package's own text, whose module is one of the package's, names an attribute
that exists.
"""

import ast
import importlib
import re
from pathlib import Path

import orthosplines

ALLOWED = set()  # definitions exempt from the check


def _lines(node):
    return set(range(node.lineno, node.end_lineno + 1))


def _definitions(tree):
    """(qualified name, its own lines) of every covered definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, _lines(node)
        if isinstance(node, ast.ClassDef):
            body = set().union(*(_lines(s) for s in node.body if not isinstance(s, ast.FunctionDef)))
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    yield f"{node.name}.{member.name}", _lines(member) | body


def _mentions(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.asname or node.name.rsplit(".", 1)[-1], node.lineno


def unreached(package):
    """Qualified names of the covered definitions that nothing outside them names."""
    trees = {path: ast.parse(path.read_text()) for path in sorted(Path(package).glob("*.py"))}
    mentions = [(name, path, line) for path, tree in trees.items() for name, line in _mentions(tree)]
    out = []
    for path, tree in trees.items():
        for qualname, own in _definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if not any(m == name and not (p == path and ln in own) for m, p, ln in mentions):
                out.append(qualname)
    return sorted(out)


def test_every_definition_is_reached_inside_the_package():
    assert sorted(set(unreached(Path(orthosplines.__file__).parent)) - ALLOWED) == []


def test_the_check_sees_an_unreached_helper(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def used():\n    return twin()\n\n\n"
        "def helper():\n    return helper()\n\n\n"
        "def twin():\n    return 1\n\n\n"
        "class Box:\n    def spare(self):\n        return self.spare()\n\n"
        "    def __len__(self):\n        return 0\n\n"
        "    def eval(self):\n        return self.size()\n\n"
        "    __call__ = eval\n\n"
        "    def size(self):\n        return 0\n\n\n"
        "Box()()\nused()\n"
    )
    # eval is named only by the alias in its own class body; size by eval
    assert unreached(tmp_path) == ["Box.eval", "Box.spare", "helper"]


def scipy_imports(package):
    """(module file, module, names) for every import of scipy in the package.

    An import is an import statement, or a ``find_spec`` call given the
    module's name as a string; names are the ones an import statement takes.
    """
    out = []
    for path in sorted(Path(package).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                out += [(path.name, a.name, None) for a in node.names if a.name.split(".")[0] == "scipy"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
                out.append((path.name, node.module, sorted(a.name for a in node.names)))
            elif (
                isinstance(node, ast.Call)
                and getattr(node.func, "attr", getattr(node.func, "id", None)) == "find_spec"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and str(node.args[0].value).split(".")[0] == "scipy"
            ):
                out.append((path.name, node.args[0].value, None))
    return out


def test_only_bspline_imports_scipy_and_only_lapack_band_routines():
    # bspline finds scipy and loads its LAPACK extension by file, and no
    # module of the package holds any compiled LAPACK routine but its two.
    imports = scipy_imports(Path(orthosplines.__file__).parent)
    assert imports == [("bspline.py", "scipy", None), ("bspline.py", "scipy.linalg._flapack", None)]
    modules = [importlib.import_module(f"orthosplines.{path.stem}")
               for path in sorted(Path(orthosplines.__file__).parent.glob("*.py"))]
    routines = [(module.__name__, name) for module in modules
                for name, value in vars(module).items() if type(value).__name__ == "fortran"]
    assert routines == [("orthosplines.bspline", "dpbtrf"), ("orthosplines.bspline", "dpbtrs")]


def test_the_scipy_check_sees_every_form_of_import(tmp_path):
    (tmp_path / "a.py").write_text("import scipy.linalg\n")
    (tmp_path / "b.py").write_text("def f():\n    from scipy import sparse\n")
    (tmp_path / "c.py").write_text("import importlib.util\nimportlib.util.find_spec('scipy.sparse')\n")
    assert scipy_imports(tmp_path) == [
        ("a.py", "scipy.linalg", None),
        ("b.py", "scipy", ["sparse"]),
        ("c.py", "scipy.sparse", None),
    ]


def stale_names(package, texts):
    """The backticked ``module.name`` references in the texts that do not resolve, in order.

    A reference is the leading dotted name of a span between matching runs
    of backticks, with a first part that is a module of the package and
    not a file name (``knots.py``); it resolves when each later part is an
    attribute of the one before.
    """
    modules = {path.stem for path in Path(package).glob("*.py")} - {"__init__"}
    out = []
    for text in texts:
        for _, span in re.findall(r"(`+)([^`]+?)\1", text):
            ref = re.match(r"\w+(?:\.\w+)+", span)
            if ref is None or ref[0].split(".")[0] not in modules or ref[0].endswith(".py"):
                continue
            module, *attrs = ref[0].split(".")
            target = importlib.import_module(f"{Path(package).name}.{module}")
            for attr in attrs:
                if not hasattr(target, attr):
                    out.append(ref[0])
                    break
                target = getattr(target, attr)
    return out


def test_every_backticked_name_resolves():
    package = Path(orthosplines.__file__).parent
    readme = package.parents[1] / "README.md"
    texts = [readme.read_text()] + [path.read_text() for path in sorted(package.glob("*.py"))]
    assert stale_names(package, texts) == []


def test_the_name_check_sees_a_stale_name():
    package = Path(orthosplines.__file__).parent
    text = (
        "`charint.knot_distances` and ``bspline.GramSystem.inverse_diagonals``, "
        "`analysis.square_function`, `np.cumsum`, ``bspline.GramSystem.gone(x)`` and `knots.py`"
    )
    assert stale_names(package, [text]) == ["analysis.square_function", "bspline.GramSystem.gone"]
