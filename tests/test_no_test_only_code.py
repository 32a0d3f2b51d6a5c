"""Every function, class and method in src/rareebm is reached from the package itself.

Library code that only its own unit test calls is dead weight. A definition
counts as reached when src/rareebm refers to it outside its own body: a
function or class by its name, a method only through an attribute access
(`.name`), so that a local variable called `cdf` does not stand in for a
`cdf` method. Dunder methods are called by Python itself and are not checked.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rareebm"

# Kept only for the acceptance checks: an independent code path for the KL
# gradient and a Monte Carlo cross-check of the quadratic-form oracle.
ALLOWED = {"mle_gradient_rbf", "gaussian_quadratic_tail_mc"}


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

