"""No package module imports a name it never references, and no private
module-level name goes unreferenced, so a deletion cannot leave a dead
import or helper behind (no linter is part of the toolchain).  Each error
or warning message is raised from one place in its module, so one rule
has one check."""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mckeanflow"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    # attribute chains such as np.linalg start at a Name
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = ["%s (line %d)" % (name, line)
              for name, line in sorted(imported.items()) if name not in used]
    assert not unused, unused


def _module_private_names(tree):
    """Private functions, classes and constants bound at module level."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        names[name.id] = node.lineno
    return {name: line for name, line in names.items()
            if name.startswith("_") and not name.startswith("__")}


def test_no_unused_private_names():
    # a private name serves its package only, so one that no module
    # references is dead code left behind by a deletion
    used = set()
    defined = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined += ["%s:%d %s" % (path.name, line, name) for name, line
                    in sorted(_module_private_names(tree).items())]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = [entry for entry in defined if entry.split()[-1] not in used]
    assert not unused, unused


def _is_warn(call):
    return (isinstance(call.func, ast.Attribute) and call.func.attr == "warn"
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id == "warnings")


def _messages(tree):
    """(message literal, line) of each `raise E("...")`,
    `raise E("..." % args)`, `warnings.warn("...")` and
    `warnings.warn("..." % args)`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
            call = node.exc
        elif isinstance(node, ast.Call) and _is_warn(node):
            call = node
        else:
            continue
        if call.args:
            msg = call.args[0]
            if isinstance(msg, ast.BinOp) and isinstance(msg.op, ast.Mod):
                msg = msg.left
            if isinstance(msg, ast.Constant) and isinstance(msg.value, str):
                yield msg.value, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_raise_site_per_message(path):
    # a refusal or warning written twice is one rule kept in two places,
    # which can drift apart; share one check instead
    sites = defaultdict(list)
    for msg, line in _messages(ast.parse(path.read_text(),
                                               filename=str(path))):
        sites[msg].append(line)
    repeated = {msg: lines for msg, lines in sites.items() if len(lines) > 1}
    assert not repeated, repeated
