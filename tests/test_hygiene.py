"""Source hygiene of the trigonal package: no unused import, no dead definition, no idle knob.

The checks read the source with ast alone; nothing is imported.  An import
of a module other than __init__ is used where its module loads the name.  A
top-level or class-level definition is referenced where any file of src,
tests or pipebench loads it, reads it as an attribute, imports it, passes it
as a keyword or names it in a string that is not a docstring (pipebench
names the functions it wraps in strings).  A defaulted parameter is a knob
some call site turns: by keyword, by position, or through * or **.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "trigonal"
_WORD = re.compile(r"[A-Za-z_]\w*")


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _docstrings(tree):
    """The ids of the docstring constants of a module and its classes and functions."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                out.add(id(body[0].value))
    return out


def _loads(tree):
    """Every name tree loads."""
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}


def _references(tree):
    """Every name tree loads, reads as an attribute, imports or passes as a keyword, and the words of its strings."""
    docs = _docstrings(tree)
    out = _loads(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            out.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg:
            out.add(node.arg)
        elif isinstance(node, ast.ImportFrom):
            out.update(a.name for a in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docs:
            out.update(_WORD.findall(node.value))
    return out


def _defined(body):
    """The names a module or class body binds by def, class or assignment."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                for n in ast.walk(t):
                    if isinstance(n, ast.Name):
                        yield n.id


def _modules():
    return sorted(PACKAGE.glob("*.py"))


def test_no_unused_import():
    unused = []
    for path in _modules():
        if path.name == "__init__.py":
            continue
        tree = _tree(path)
        used = _loads(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [
                    f"{path.stem}: {bound}"
                    for bound in (a.asname or a.name.split(".")[0] for a in node.names)
                    if bound not in used
                ]
    assert unused == []


def test_no_unreferenced_definition():
    used = set()
    for sub in ("src", "tests", "pipebench"):
        for path in (ROOT / sub).rglob("*.py"):
            used |= _references(_tree(path))
    dead = []
    for path in _modules():
        tree = _tree(path)
        names = list(_defined(tree.body))
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                names += _defined(node.body)
        dead += [f"{path.stem}.{n}" for n in names if not (n.startswith("__") and n.endswith("__")) and n not in used]
    assert dead == []


def _functions():
    """(label, call name, def node, bound) for each top-level function and method of src/trigonal.

    A method is called by its name, a constructor by its class's name; bound
    is 1 where the first parameter is bound by the call (self or cls).
    """
    for path in _modules():
        tree = _tree(path)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                yield f"{path.stem}.{node.name}", node.name, node, 0
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for fn in cls.body:
                    if isinstance(fn, ast.FunctionDef):
                        name = cls.name if fn.name in ("__init__", "__new__") else fn.name
                        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
                        yield f"{path.stem}.{cls.name}.{fn.name}", name, fn, int(not static)


def _defaulted(fn, bound):
    """(position at a call site or None for keyword-only, name) of each defaulted parameter."""
    args = fn.args
    pos = args.posonlyargs + args.args
    first = len(pos) - len(args.defaults)
    out = [(i - bound, a.arg) for i, a in enumerate(pos) if i >= first]
    return out + [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def _turns(call, index, name):
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    return index is not None and len(call.args) > index


def test_every_defaulted_parameter_is_passed_somewhere():
    calls = {}
    for sub in ("src", "tests", "pipebench"):
        for path in (ROOT / sub).rglob("*.py"):
            for node in ast.walk(_tree(path)):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                    calls.setdefault(name, []).append(node)
    idle = []
    for label, name, fn, bound in _functions():
        sites = calls.get(name)
        if not sites:
            continue  # never called: test_no_unreferenced_definition's concern
        idle += [f"{label}({arg})" for i, arg in _defaulted(fn, bound) if not any(_turns(c, i, arg) for c in sites)]
    assert idle == []


# wc -l src/trigonal/*.py after the reverse's triple classes were built on
# the odd model from one cached transport; a change that shortens src/ lowers it
_SRC_LINES = 5028


def test_src_does_not_grow_past_its_line_count():
    lines = sum(path.read_bytes().count(b"\n") for path in _modules())
    assert lines <= _SRC_LINES, f"src/trigonal is {lines} lines, more than the {_SRC_LINES} pinned"
