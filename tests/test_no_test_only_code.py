"""Every function, class, method and settable dataclass field in src/rareebm is used by the package itself.

Library code that only its own unit test calls is dead weight. A definition
counts as reached when src/rareebm refers to it outside its own body: a
function or class by its name, a method only through an attribute access
(`.name`), so that a local variable called `cdf` does not stand in for a
`cdf` method. Dunder methods are called by Python itself and are not checked.

A dataclass field with a default is an option; one that only tests set is a
constant. It counts as set when src/rareebm passes it by keyword or position
to a call of its class (or of `cls` in the class's own methods), names it in
a `dataclasses.replace` call or assigns it as an attribute.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rareebm"

# Kept only for the acceptance checks: an independent code path for the KL
# gradient, a Monte Carlo cross-check of the quadratic-form oracle, the KL
# trace switch and a fixed Stein kernel bandwidth.
ALLOWED = {
    "mle_gradient_rbf",
    "gaussian_quadratic_tail_mc",
    "TrainConfig.track_kl",
    "SteinKernelConfig.bandwidth",
}


def _scan():
    """(definitions, references) of the package: (file, name, is_method, first, last) and (file, name, is_attribute, line)."""
    defs, refs = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        methods = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defs.append((path.name, node.name, id(node) in methods, node.lineno, node.end_lineno))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.append((path.name, node.id, False, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                refs.append((path.name, node.attr, True, node.lineno))
    return defs, refs


def test_every_definition_is_referenced_outside_itself():
    defs, refs = _scan()
    assert defs, f"no definitions found under {SRC}"
    unreached = [
        f"{file}:{first} {name}"
        for file, name, is_method, first, last in defs
        if name not in ALLOWED
        and not any(
            rname == name
            and (is_attr or not is_method)
            and not (rfile == file and first <= line <= last)
            for rfile, rname, is_attr, line in refs
        )
    ]
    assert unreached == [], "defined in src/rareebm but never used there: " + ", ".join(unreached)


def _is_dataclass(cls: ast.ClassDef) -> bool:
    decorators = (dec.func if isinstance(dec, ast.Call) else dec for dec in cls.decorator_list)
    return any(isinstance(dec, ast.Name) and dec.id == "dataclass" for dec in decorators)


def _init_fields(cls: ast.ClassDef) -> list:
    """(name, has a default) of each __init__ field of a dataclass, in order."""
    fields = []
    for stmt in cls.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        if ast.unparse(stmt.annotation).startswith("ClassVar"):
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) and value.func.id == "field":
            kw = {k.arg: k.value for k in value.keywords}
            if isinstance(kw.get("init"), ast.Constant) and kw["init"].value is False:
                continue
            fields.append((stmt.target.id, "default" in kw or "default_factory" in kw))
        else:
            fields.append((stmt.target.id, value is not None))
    return fields


def _unset_fields() -> list:
    """Class.field of each defaulted dataclass field that src/rareebm never sets."""
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))]
    classes = {
        cls.name: _init_fields(cls)
        for tree in trees
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
    }
    set_by_class = {name: set() for name in classes}
    set_anywhere = set()  # replace keywords and attribute stores: the object's class is unknown

    def record(cls_name, call):
        names = [name for name, _ in classes[cls_name]]
        for i, arg in enumerate(call.args):
            set_by_class[cls_name].update(names[i:] if isinstance(arg, ast.Starred) else names[i : i + 1])
        set_by_class[cls_name].update(k.arg for k in call.keywords if k.arg is not None)

    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in classes:
                for call in ast.walk(node):
                    if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "cls":
                        record(node.name, call)
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)  # f(...) or m.f(...)
                if name in classes:
                    record(name, node)
                elif name == "replace":
                    set_anywhere.update(k.arg for k in node.keywords if k.arg is not None)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                set_anywhere.add(node.attr)
    assert classes, f"no dataclasses found under {SRC}"
    return [
        f"{cls_name}.{name}"
        for cls_name, fields in classes.items()
        for name, has_default in fields
        if has_default and name not in set_by_class[cls_name] | set_anywhere
    ]


def test_every_dataclass_option_is_set_by_the_package():
    unset = [name for name in _unset_fields() if name not in ALLOWED]
    assert unset == [], "dataclass fields with a default that src/rareebm never sets: " + ", ".join(unset)
