"""Import layering: fraclap's modules import each other one way only, in
the order the package docstring lists them, and only at module level, so
every dependency is visible at the top of a file. Every exported name has a
caller outside its own unit tests."""

import ast
import re
from pathlib import Path

import fraclap

PACKAGE = Path(fraclap.__file__).resolve().parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _targets(node):
    """The fraclap modules an import statement loads ("__init__" for the
    package itself), or [] for an import from outside the package."""
    if isinstance(node, ast.Import):
        parts = [alias.name.split(".") for alias in node.names]
        return [p[1] if len(p) > 1 else "__init__" for p in parts if p[0] == "fraclap"]
    if node.level == 0:
        head, _, rest = (node.module or "").partition(".")
        if head != "fraclap":
            return []
    else:
        rest = node.module or ""
    if rest:
        return [rest.split(".")[0]]
    # from fraclap import name: a submodule, or a name of the package
    return [a.name if a.name in MODULES else "__init__" for a in node.names]


def _imports(module):
    """(module-level targets, lines of fraclap imports inside a scope)."""
    tree = ast.parse((PACKAGE / (module + ".py")).read_text(encoding="utf-8"))
    top, nested = set(), []

    def visit(node, in_scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                targets = _targets(child)
                if targets and in_scope:
                    nested.append(child.lineno)
                elif targets:
                    top.update(targets)
            visit(child, in_scope or isinstance(child, _SCOPES))

    visit(tree, False)
    return top, nested


def test_no_function_level_fraclap_imports():
    found = [
        "%s.py:%d" % (module, line)
        for module in MODULES
        for line in _imports(module)[1]
    ]
    assert found == []


def _listed_modules():
    """The submodules in the order the package docstring lists them."""
    block = fraclap.__doc__.partition("Submodules:\n")[2].partition("\n\n")[0]
    return re.findall(r"^  (\w+) ", block, re.M)


def test_docstring_lists_every_module_once():
    listed = _listed_modules()
    assert sorted(listed) == [module for module in MODULES if module != "__init__"]


def test_modules_import_only_modules_listed_above():
    listed = _listed_modules()
    found = [
        "%s imports %s" % (module, dep)
        for k, module in enumerate(listed)
        for dep in sorted(_imports(module)[0] - {module})
        if dep not in listed[:k]
    ]
    assert found == []


def test_module_imports_form_no_cycle():
    graph = {module: sorted(_imports(module)[0] - {module}) for module in MODULES}
    state = dict.fromkeys(graph, 0)  # 0 unseen, 1 on the DFS path, 2 done

    def cycle_from(module, path):
        state[module] = 1
        for dep in graph.get(module, ()):
            if state.get(dep) == 1:
                return path[path.index(dep):] + [dep]
            if state.get(dep) == 0:
                found = cycle_from(dep, path + [dep])
                if found:
                    return found
        state[module] = 2
        return None

    for module in MODULES:
        if state[module] == 0:
            cycle = cycle_from(module, [module])
            assert cycle is None, " -> ".join(cycle)



def _identifiers(path):
    """Every name, attribute and imported name a source file uses; the names
    its own def and class statements bind are not among them."""
    tree = ast.parse(Path(path).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def _public_defs(module):
    """Names of the public functions and classes a module defines at its
    top level."""
    tree = ast.parse((PACKAGE / (module + ".py")).read_text(encoding="utf-8"))
    return [
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def test_public_names_have_callers():
    """Each exported name, and each public top-level function and class of
    every module, is used inside the package, beyond the package's
    re-export of it, or by an acceptance gate; a name that only its own unit
    tests call is dead code."""
    used = _identifiers(Path(__file__).parent / "test_acceptance.py")
    for module in MODULES:
        if module != "__init__":
            used |= _identifiers(PACKAGE / (module + ".py"))
    names = [name for name in fraclap.__all__ if name != "__version__"]
    names += [
        "%s.%s" % (module, name)
        for module in MODULES
        for name in _public_defs(module)
    ]
    unused = [name for name in names if name.rpartition(".")[2] not in used]
    assert unused == []
