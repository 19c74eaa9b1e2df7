"""Source hygiene checks that need no linter: every import in the package and
the scripts is used, and so is every private top-level function and class.
Every public top-level function and class of the package is referenced by
the package, the scripts or the tests, and every top-level definition is
reached from a stage or from a named acceptance oracle.  Every optional parameter of the package is set by
some call, and every parameter is read by its function's body unless the
function is passed around as a value."""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(ROOT.glob("src/macroplan/*.py")) + sorted(
    ROOT.glob("scripts/*.py"))


def _imported(tree):
    """(bound name, line) of every import outside ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree):
    """Names the module reads, in code, in quoted annotations and in
    ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef,
                               ast.AsyncFunctionDef)):
            ann = getattr(node, "annotation", None) or getattr(
                node, "returns", None)
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _used(ast.parse(ann.value, mode="eval"))
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree)
              if name not in used]
    assert not unused, f"{path.relative_to(ROOT)}: unused imports: " \
        + ", ".join(unused)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_private_definitions(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = [f"{node.name} (line {node.lineno})" for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef))
              and node.name.startswith("_") and node.name not in used]
    assert not unused, f"{path.relative_to(ROOT)}: unused private " \
        "definitions: " + ", ".join(unused)


MODULES = sorted(ROOT.glob("src/macroplan/*.py"))
CALLERS = MODULES + sorted(ROOT.glob("scripts/*.py")) + sorted(
    ROOT.glob("tests/*.py"))


def _referenced(tree):
    """Names a file reads or imports, bare or as an attribute; a name listed
    in ``__all__`` only is not among them."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unreferenced_public_definitions(path):
    referenced = set().union(*(_referenced(ast.parse(p.read_text()))
                               for p in CALLERS))
    tree = ast.parse(path.read_text(), filename=str(path))
    unreferenced = [f"{node.name} (line {node.lineno})" for node in tree.body
                    if isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and node.name not in referenced]
    assert not unreferenced, f"{path.relative_to(ROOT)}: public " \
        "definitions nothing references: " + ", ".join(unreferenced)


CALL_SITES = sorted(p for d in ("src", "scripts", "tests", "bench")
                    for p in (ROOT / d).rglob("*.py"))
#: stands for every parameter: set by a call that passes *args or **kwargs
EVERY = object()


def _optional_parameters(tree):
    """(callee, parameter, position) of every parameter with a default of a
    top-level function or of a method; the callee of ``__init__`` is its
    class, and the position counts the arguments a call passes (None for a
    keyword-only parameter)."""
    defs = [(node.name, node, 0) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            defs += [
                (cls.name if node.name == "__init__" else node.name, node,
                 0 if any(isinstance(d, ast.Name) and d.id == "staticmethod"
                          for d in node.decorator_list) else 1)
                for node in cls.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for callee, node, implicit in defs:
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for pos in range(first, len(positional)):
            yield callee, positional[pos].arg, pos - implicit
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield callee, arg.arg, None


def _set_by_calls():
    """Callee name -> the parameter names and positions some call sets."""
    set_by = defaultdict(set)
    for path in CALL_SITES:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(
                func, "attr", None)
            if any(isinstance(a, ast.Starred) for a in node.args) or any(
                    k.arg is None for k in node.keywords):
                set_by[name].add(EVERY)
            set_by[name].update(range(len(node.args)))
            set_by[name].update(k.arg for k in node.keywords)
    return set_by


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unset_optional_parameters(path):
    set_by = _set_by_calls()
    tree = ast.parse(path.read_text(), filename=str(path))
    unset = [f"{callee}({param})"
             for callee, param, pos in _optional_parameters(tree)
             if not {EVERY, param, pos} & set_by[callee]]
    assert not unset, f"{path.relative_to(ROOT)}: optional parameters no " \
        "call sets: " + ", ".join(unset)


def _value_references(tree):
    """Names a file reads other than as the function of a call: a function
    referenced this way is called through a table or a callback, whose
    signature it must keep."""
    called = {id(node.func) for node in ast.walk(tree)
              if isinstance(node, ast.Call)}
    names = set()
    for node in ast.walk(tree):
        if id(node) in called:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            names.add(node.attr)
    return names


def _unread_parameters(tree, exempt):
    """(function, parameter) of every parameter, ``self`` and ``cls`` aside,
    that its function's body never reads, for the functions outside
    ``exempt``."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                or node.name in exempt:
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args
                  + args.kwonlyargs + [args.vararg, args.kwarg] if a]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for param in params:
            if param not in read and param not in ("self", "cls"):
                yield node.name, param


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_parameters(path):
    exempt = set().union(*(_value_references(ast.parse(p.read_text()))
                           for p in CALLERS))
    tree = ast.parse(path.read_text(), filename=str(path))
    unread = [f"{fn}({param})" for fn, param in _unread_parameters(tree,
                                                                    exempt)]
    assert not unread, f"{path.relative_to(ROOT)}: parameters no body " \
        "reads: " + ", ".join(unread)


#: definitions that no stage reaches, each kept for the check it serves;
#: they count as roots, so what they call is reached too
ORACLES = {
    # AC1: both losses' gradients against central differences
    "grad_check": "tests/test_acceptance.py::test_ac1_gradient_fidelity",
    # AC3 and AC9: width-1 beam search against stepwise argmax
    "greedy_plan": "tests/test_acceptance.py::test_ac9_beam_search_invariants",
    # AC7: sentence BLEU on hand-computed cases
    "bleu": "tests/test_acceptance.py::test_ac7_metric_oracles",
    # AC10: the template baseline's relations are all table-supported
    "templ_summary": "tests/test_acceptance.py::test_ac10_template_baseline",
    # the box-score oracle of synthesized games
    "check_consistency": "tests/test_synth.py",
}
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _read_names(node):
    """Names ``node`` reads, bare or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load)}


def _reachability(extra_roots):
    """(top-level definitions of the package and the scripts by name, the
    names reached).  The roots are every module-level statement but the
    definitions and ``__all__``, plus ``cli.main`` and the definitions named
    in ``extra_roots``; a definition is reached when a reached body reads its
    name.  Names stand for every definition they name, in any module."""
    defs, pending = defaultdict(list), []
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, DEFINITIONS):
                defs[node.name].append((path, node))
            elif not (isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)):
                pending.append(node)
    pending += [node for path, node in defs["main"] if path.name == "cli.py"]
    pending += [node for name in extra_roots for _, node in defs[name]]
    reached = set()
    while pending:
        for name in _read_names(pending.pop()) - reached:
            reached.add(name)
            pending += [node for _, node in defs[name]]
    return defs, reached


def test_every_definition_is_reached():
    defs, reached = _reachability(ORACLES)
    unreached = sorted(f"{path.relative_to(ROOT)}: {name} (line "
                       f"{node.lineno})"
                       for name, found in defs.items() for path, node in found
                       if name not in reached | set(ORACLES))
    assert not unreached, "definitions no stage reaches: " \
        + ", ".join(unreached)


def test_oracle_allowlist_is_current():
    defs, reached = _reachability(())
    stale = sorted(
        name for name, check in ORACLES.items()
        if name not in defs or name in reached or name not in _referenced(
            ast.parse((ROOT / check.split("::")[0]).read_text())))
    assert not stale, "allowlisted as oracles but missing, reached by a " \
        "stage or not read by the check named: " + ", ".join(stale)
