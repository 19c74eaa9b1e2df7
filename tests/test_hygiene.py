"""Source hygiene checks that need no linter: every import in the package and
the scripts is used, none takes an underscore name from another module, no
code reads an underscore attribute of an object but ``self`` or ``cls``,
and every private top-level function and class is used.
Every public top-level function and class of the package is referenced by
the package, the scripts or the tests, and every top-level definition and
method is reached from a stage or from a named acceptance oracle.  Every
optional parameter of the package is set by a stage, a script or the
benchmark (or, for an oracle, by the check it serves), and every parameter
is read by its function's body unless the function is passed around as a
value.  Every field of a package dataclass is read as an attribute by the
package, the scripts or the benchmark, but for a short allowlist.  Every
``Tape`` op has a primitive gradient check in AC1, and no module but ``nn``
applies the beam-search rules."""

import ast
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

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


def _private_imports(tree):
    """(module.name, line) of every underscore name, dunders aside, that
    ``tree`` imports from a module of the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("macroplan")):
            for alias in node.names:
                if alias.name.startswith("_") and not _is_dunder(alias.name):
                    yield f"{node.module}.{alias.name}", node.lineno


def test_no_private_imports_across_modules():
    found = [f"{path.relative_to(ROOT)}: {name} (line {line})"
             for path in SOURCES
             for name, line in _private_imports(ast.parse(path.read_text()))]
    assert not found, "underscore names imported from another module: " \
        + ", ".join(found)


def _private_attribute_reads(tree):
    """(expression, line) of every read of an underscore attribute, dunders
    aside, of an object other than ``self`` or ``cls``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load) and node.attr.startswith("_") \
                and not _is_dunder(node.attr) and not (
                    isinstance(node.value, ast.Name)
                    and node.value.id in ("self", "cls")):
            yield ast.unparse(node), node.lineno


def test_no_private_attribute_reads():
    found = [f"{path.relative_to(ROOT)}: {expr} (line {line})"
             for path in SOURCES
             for expr, line in _private_attribute_reads(
                 ast.parse(path.read_text()))]
    assert not found, "underscore attributes read from another object: " \
        + ", ".join(found)


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


#: the beam rules that only ``nn.beam_search`` applies: a decoder supplies a
#: step function and grows no beam loop of its own
BEAM_RULES = {"rank_expansions", "best_hypothesis"}


def test_one_beam_loop():
    found = [f"{path.relative_to(ROOT)}: {name}" for path in MODULES
             if path.name != "nn.py"
             for name in sorted(BEAM_RULES
                                & _referenced(ast.parse(path.read_text())))]
    assert not found, "beam rules used outside nn.beam_search: " \
        + ", ".join(found)


#: the calls that count for an optional parameter: those of a stage, a script
#: or the benchmark (an acceptance oracle's own parameters may also be set by
#: the check it serves; see ORACLES)
CALL_SITES = sorted(p for d in ("src", "scripts", "bench")
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


def _check(check):
    """(file tree, node) of a check that ORACLES names: a test function of
    a file, or the whole file; the node is None if the file has no such
    function."""
    path, _, name = check.partition("::")
    tree = ast.parse((ROOT / path).read_text())
    if not name:
        return tree, tree
    return tree, next((node for node in tree.body
                       if isinstance(node, ast.FunctionDef)
                       and node.name == name), None)


def _calls(tree, node):
    """(callee name, call) of every call under ``node``, with the names that
    ``tree`` imports ``as`` another name resolved."""
    aliases = {alias.asname: alias.name for n in ast.walk(tree)
               if isinstance(n, ast.ImportFrom)
               for alias in n.names if alias.asname}
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            func = call.func
            if isinstance(func, ast.Name):
                yield aliases.get(func.id, func.id), call
            elif isinstance(func, ast.Attribute):
                yield func.attr, call


def _set_by_calls():
    """Callee name -> the parameter names and positions some call sets."""
    sites = [(tree, tree, None) for tree in
             (ast.parse(path.read_text()) for path in CALL_SITES)]
    for oracle, check in ORACLES.items():
        tree, node = _check(check)
        if node is not None:   # a missing check is reported as stale
            sites.append((tree, node, oracle.rsplit(".", 1)[-1]))
    set_by = defaultdict(set)
    for tree, node, only in sites:
        for name, call in _calls(tree, node):
            if only not in (None, name):
                continue
            if any(isinstance(a, ast.Starred) for a in call.args) or any(
                    k.arg is None for k in call.keywords):
                set_by[name].add(EVERY)
            set_by[name].update(range(len(call.args)))
            set_by[name].update(k.arg for k in call.keywords)
    return set_by


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unset_optional_parameters(path):
    set_by = _set_by_calls()
    tree = ast.parse(path.read_text(), filename=str(path))
    unset = [f"{callee}({param})"
             for callee, param, pos in _optional_parameters(tree)
             if not {EVERY, param, pos} & set_by[callee]]
    assert not unset, f"{path.relative_to(ROOT)}: optional parameters no " \
        "stage, script or benchmark call sets: " + ", ".join(unset)


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


#: dataclass fields that nothing reads as an attribute, each kept for the
#: reason given; a class name stands for all its fields
UNREAD_FIELDS = {
    # accepted and ignored: the planner has no byte-pair model (ROADMAP
    # item 2 deletes it)
    "RunConfig.planner_merges",
    # report.json writes the report out whole through ``asdict``
    "MetricsReport",
}


def _dataclass_fields(tree):
    """(class, field, line) of every field of a dataclass of ``tree``."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and "dataclass" in {
                ast.unparse(getattr(d, "func", d))
                for d in cls.decorator_list}:
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(
                        node.target, ast.Name):
                    yield cls.name, node.target.id, node.lineno


def test_every_dataclass_field_is_read():
    read = {node.attr for path in CALL_SITES
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = [f"{path.relative_to(ROOT)}: {cls}.{name} (line {line})"
              for path in MODULES
              for cls, name, line in _dataclass_fields(
                  ast.parse(path.read_text()))
              if name not in read
              and not {cls, f"{cls}.{name}"} & UNREAD_FIELDS]
    assert not unread, "dataclass fields no stage, script or benchmark " \
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
    # AC7: multiset content-selection scores on hand-computed cases
    "cs": "tests/test_acceptance.py::test_ac7_metric_oracles",
    # AC10: the template baseline's relations are all table-supported
    "templ_summary": "tests/test_acceptance.py::test_ac10_template_baseline",
    # the box-score oracle of synthesized games
    "check_consistency": "tests/test_synth.py",
}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


class Definition(NamedTuple):
    path: Path
    label: str        # ``name`` or ``Class.method``
    name: str         # the name a read reaches it by
    method: bool      # reached only by an attribute read
    lineno: int
    parts: list       # the nodes whose reads it makes


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions():
    """(every top-level definition and method of the package and the
    scripts, the module-level statements but the definitions and
    ``__all__``).  A class's dunder methods are parts of the class."""
    defs, statements = [], []
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, FUNCTIONS):
                defs.append(Definition(path, node.name, node.name, False,
                                       node.lineno, [node]))
            elif isinstance(node, ast.ClassDef):
                methods = [m for m in node.body if isinstance(m, FUNCTIONS)
                           and not _is_dunder(m.name)]
                defs.append(Definition(
                    path, node.name, node.name, False, node.lineno,
                    node.bases + node.keywords + node.decorator_list
                    + [s for s in node.body if s not in methods]))
                defs += [Definition(path, f"{node.name}.{m.name}", m.name,
                                    True, m.lineno, [m]) for m in methods]
            elif not (isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)):
                statements.append(node)
    return defs, statements


def _bound(function):
    """Names a function binds itself: parameters (its own and those of the
    functions and lambdas inside it), assignment and loop targets, and the
    functions and classes it defines inside."""
    names = set()
    for n in ast.walk(function):
        if isinstance(n, ast.arg):
            names.add(n.arg)
        elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
            names.add(n.id)
        elif isinstance(n, (*FUNCTIONS, ast.ClassDef)) and n is not function:
            names.add(n.name)
    return names


def _reads(node):
    """(bare names, attribute names) ``node`` reads; a function reads no
    module-level definition through a bare name it binds itself."""
    bare, attrs = set(), set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            bare.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            attrs.add(n.attr)
    if isinstance(node, FUNCTIONS):
        bare -= _bound(node)
    return bare, attrs


def _reached(d, bare, attrs):
    return d.name in attrs or (not d.method and d.name in bare)


def _reachability(extra_roots):
    """(every definition, the bare names reached, the attribute names
    reached).  The roots are the module-level statements, ``cli.main`` and
    the definitions labelled in ``extra_roots``; a definition is reached
    when a reached part reads its name, a method only as an attribute.
    Names stand for every definition they name, in any module or class."""
    defs, pending = _definitions()
    pending += [part for d in defs if d.label in extra_roots
                or (d.label == "main" and d.path.name == "cli.py")
                for part in d.parts]
    bare, attrs = set(), set()
    while pending:
        new_bare, new_attrs = _reads(pending.pop())
        new_bare, new_attrs = new_bare - bare, new_attrs - attrs
        if not new_bare and not new_attrs:
            continue
        bare |= new_bare
        attrs |= new_attrs
        pending += [part for d in defs if _reached(d, new_bare, new_attrs)
                    for part in d.parts]
    return defs, bare, attrs


def test_every_definition_is_reached():
    defs, bare, attrs = _reachability(ORACLES)
    unreached = sorted(f"{d.path.relative_to(ROOT)}: {d.label} (line "
                       f"{d.lineno})" for d in defs
                       if not _reached(d, bare, attrs)
                       and d.label not in ORACLES)
    assert not unreached, "definitions no stage reaches: " \
        + ", ".join(unreached)


def test_oracle_allowlist_is_current():
    defs, bare, attrs = _reachability(())
    by_label = {d.label: d for d in defs}
    checks = {label: _check(check)[1] for label, check in ORACLES.items()}
    stale = sorted(
        label for label, node in checks.items()
        if label not in by_label or node is None
        or _reached(by_label[label], bare, attrs)
        or by_label[label].name not in _referenced(node))
    assert not stale, "allowlisted as oracles but missing, reached by a " \
        "stage or not read by the check named: " + ", ".join(stale)


#: ``Tape`` methods that record no node of their own
TAPE_CONSTRUCTION = {"tensor", "zeros", "param", "backward"}


def _ac1_reads():
    """Attribute names AC1's ``primitives`` list reads, directly or through
    the module-level helpers of its file that it calls."""
    tree, check = _check(
        "tests/test_acceptance.py::test_ac1_gradient_fidelity")
    helpers = {node.name: node for node in tree.body
               if isinstance(node, FUNCTIONS)}
    [primitives] = [node.value for node in ast.walk(check)
                    if isinstance(node, ast.Assign) and [
                        ast.unparse(t) for t in node.targets] == ["primitives"]]
    pending, seen, attrs = [primitives], set(), set()
    while pending:
        bare, new_attrs = _reads(pending.pop())
        attrs |= new_attrs
        for name in bare & helpers.keys() - seen:
            seen.add(name)
            pending.append(helpers[name])
    return attrs


def test_ac1_checks_every_tape_op():
    tree = ast.parse((ROOT / "src/macroplan/autodiff.py").read_text())
    [tape] = [node for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name == "Tape"]
    ops = {node.name for node in tape.body if isinstance(node, FUNCTIONS)
           and not node.name.startswith("_")} - TAPE_CONSTRUCTION
    missing = sorted(ops - _ac1_reads())
    assert not missing, "Tape ops AC1's primitive gradient checks do not " \
        "run: " + ", ".join(missing)
