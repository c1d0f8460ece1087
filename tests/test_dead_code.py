"""No dead helpers: every top-level function, class and constant of
`src/rleval` is read somewhere in the package outside its own definition,
every positional parameter is read by the function that takes it, or by
one of the methods of its name, and every dataclass field is loaded as an
attribute somewhere in the package, or each is kept in the allowlist below
for a stated reason. A read is a load that resolves to the binding: a
parameter or local of the same name reads that, not the module's. Every
top-level function of `tests/oracles.py` is read by a test module, a data
script under `tests/data/` or another oracle. An allowlisted entry kept
because `perfbench/tracing.py` uses it is still passed or read there."""

import ast
from pathlib import Path

import rleval

PACKAGE = Path(rleval.__file__).parent
TESTS = Path(__file__).parent
TRACING = TESTS.parent / "perfbench" / "tracing.py"

# name -> why it stays although no module of the package reads it. A
# parameter is written module.function(parameter), or for a method
# module.Class.method(parameter) after the first class that defines it; a
# dataclass field is written module.Class.field.
KEPT = {
    "distributions.sample": "the fit-recovery tests and acceptance criterion 5 draw their "
                            "data with it, and ROADMAP item 9 is its planned caller",
    "inference.verify_reproducibility(boot)": "perfbench/tracing.py passes it; ROADMAP item 5 "
                                              "removes it",
    "report.AnalysisReport.config_digest": "perfbench/tracing.py constructs the report with "
                                           "it; ROADMAP item 5 removes it",
    "metrics.run_average_return(window)": "perfbench/tracing.py passes it; ROADMAP item 5 "
                                          "removes it",
    "metrics.run_average_return(stride)": "perfbench/tracing.py passes it; ROADMAP item 5 "
                                          "removes it",
    "pipeline.fitting_seed_for": "perfbench/tracing.py calls it, though no fit reads a seed; "
                                 "ROADMAP item 5 removes it",
    "distributions.fit_mle(fitting_seed)": "perfbench/tracing.py passes it, though no fit "
                                           "reads it; ROADMAP item 5 removes it",
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _trees(paths=None):
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(paths or PACKAGE.glob("*.py"))}


def _own_nodes(scope):
    """The nodes of `scope` outside the scopes nested in it, with each
    nested scope's own node."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (*_FUNCTIONS, ast.ClassDef, *_COMPREHENSIONS)):
            stack.extend(ast.iter_child_nodes(node))


def _bindings(scope):
    """The names `scope` binds: its parameters, and the names it stores,
    defines or catches, less those it declares global or nonlocal. A name
    it imports is left out: a load of it reads the name it imports."""
    names, declared = set(), set()
    if isinstance(scope, _FUNCTIONS):
        args = scope.args
        names.update(a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                                     args.vararg, args.kwarg] if a)
    for node in _own_nodes(scope):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
    return names - declared


def _loads(tree):
    """(scope, name, line) of each Name that `tree` loads, where scope is
    the function, lambda, comprehension or class whose binding the load
    reads, or None for the module's. A class body's names are seen only in
    that body, not in the functions and comprehensions it holds."""
    loads = []

    def visit(node, env):  # env: (scope, its bindings, is a class) of the enclosing scopes
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                scope = next((s for s, names, _ in reversed(env) if node.id in names), None)
                loads.append((scope, node.id, node.lineno))
            return
        if isinstance(node, (*_FUNCTIONS, ast.ClassDef, *_COMPREHENSIONS)):
            visible = tuple(e for e in env if not e[2])
            inner = visible + ((node, _bindings(node), isinstance(node, ast.ClassDef)),)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            outside, body = [*node.decorator_list, node.args, node.returns], node.body
        elif isinstance(node, ast.Lambda):
            outside, body = [node.args], [node.body]
        elif isinstance(node, ast.ClassDef):
            outside = [*node.decorator_list, *node.bases, *node.keywords]
            body = node.body
        elif isinstance(node, _COMPREHENSIONS):
            first = node.generators[0]
            outside = [first.iter]
            body = [child for child in ast.iter_child_nodes(node) if child is not first]
            body += [first.target, *first.ifs]
        else:
            outside, body, inner = list(ast.iter_child_nodes(node)), [], env
        for child in outside:
            if child is not None:
                visit(child, env)
        for child in body:
            visit(child, inner)

    visit(tree, ())
    return loads


def _unread_names(trees):
    reads = {}  # name -> [(module, line)]
    for module, tree in trees.items():
        for scope, name, line in _loads(tree):
            if scope is None:
                reads.setdefault(name, []).append((module, line))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, []).append((module, node.lineno))
    unread = set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                outside = [
                    (m, line) for m, line in reads.get(name, ())
                    if not (m == module and node.lineno <= line <= node.end_lineno)
                ]
                if not outside:
                    unread.add(f"{module[:-3]}.{name}")
    return unread


def _positional(fn, method):
    params = [a.arg for a in [*fn.args.posonlyargs, *fn.args.args]]
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
    return params[1:] if method and not static else params


def _unread_parameters(trees):
    """Positional parameters that no definition reads. A function's are
    matched with its own body; a method's, by position, with every method
    of its name in the package, since a caller may reach any of them."""
    functions, methods = [], {}  # methods: name -> [(label, positional, reads)]
    for module, tree in trees.items():
        read = {}
        for scope, name, _ in _loads(tree):
            read.setdefault(scope, set()).add(name)
        classes = {node: cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for node in cls.body}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                cls = classes.get(fn)
                label = f"{module[:-3]}.{cls + '.' if cls else ''}{fn.name}"
                entry = (label, _positional(fn, cls is not None), read.get(fn, set()))
                if cls is None:
                    functions.append(entry)
                else:
                    methods.setdefault(fn.name, []).append(entry)
    unread = {f"{label}({p})" for label, params, reads in functions for p in params
              if p not in reads}
    for defs in methods.values():
        read = {i for _, params, reads in defs for i, p in enumerate(params) if p in reads}
        for i in range(max(len(params) for _, params, _ in defs)):
            if i not in read:
                label, params, _ = next(d for d in defs if i < len(d[1]))
                unread.add(f"{label}({params[i]})")
    return unread


def _is_dataclass(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def _unread_fields(trees):
    """Fields of the package's dataclasses that no module loads as an
    attribute of any object: a field is matched by its name alone."""
    loaded = {node.attr for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return {f"{module[:-3]}.{cls.name}.{node.target.id}"
            for module, tree in trees.items() for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and any(map(_is_dataclass, cls.decorator_list))
            for node in cls.body
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
            and node.target.id not in loaded}


def _kept(kind):
    """The allowlisted entries of one kind: "parameter", "field" or "name"."""
    def kind_of(entry):
        return "parameter" if "(" in entry else "field" if entry.count(".") == 2 else "name"
    return {entry for entry in KEPT if kind_of(entry) == kind}


def test_every_top_level_name_is_read():
    unread = _unread_names(_trees())
    assert sorted(unread - _kept("name")) == []
    # an allowlisted name that the package reads again leaves the list
    assert sorted(_kept("name") - unread) == []


def test_every_positional_parameter_is_read():
    unread = _unread_parameters(_trees())
    assert sorted(unread - _kept("parameter")) == []
    assert sorted(_kept("parameter") - unread) == []


def test_every_dataclass_field_is_read():
    unread = _unread_fields(_trees())
    assert sorted(unread - _kept("field")) == []
    assert sorted(_kept("field") - unread) == []


def test_every_oracle_is_called():
    trees = _trees([*TESTS.glob("*.py"), *TESTS.glob("data/*.py")])
    oracles = {f"oracles.{node.name}" for node in trees["oracles.py"].body
               if isinstance(node, ast.FunctionDef)}
    assert sorted(oracles & _unread_names(trees)) == []


def _slot(entry):
    """(callee, name, position) of a parameter or field entry of KEPT: the
    function or class a caller calls, the name it passes, and the position
    at which a positional argument passes it."""
    path, _, param = entry.rstrip(")").partition("(")
    parts = path.split(".")
    owner, name = (parts[-1], param) if param else parts[1:]
    node = next(n for n in ast.walk(_trees()[f"{parts[0]}.py"])
                if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == owner)
    if param:
        slots = _positional(node, method=len(parts) > 2)
    else:
        slots = [n.target.id for n in node.body if isinstance(n, ast.AnnAssign)]
    return owner, name, slots.index(name)


def _used_by(tree, entry):
    """Whether `tree` passes the parameter or field `entry` to its callee,
    by keyword or position, or, for a field, loads it as an attribute; for
    a name, whether it loads the name."""
    if "(" not in entry and entry.count(".") == 1:
        name = entry.split(".")[1]
        return any(getattr(node, "id", getattr(node, "attr", None)) == name
                   and isinstance(getattr(node, "ctx", None), ast.Load) for node in ast.walk(tree))
    callee, name, position = _slot(entry)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", getattr(func, "attr", None)) == callee and (
                    len(node.args) > position or any(k.arg == name for k in node.keywords)):
                return True
        elif ("(" not in entry and isinstance(node, ast.Attribute) and node.attr == name
              and isinstance(node.ctx, ast.Load)):
            return True
    return False


def test_entries_kept_for_perfbench_are_used_there():
    cited = [entry for entry, why in KEPT.items() if "perfbench/tracing.py" in why]
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    assert [entry for entry in cited if not _used_by(tree, entry)] == []
    # the check tells a use from none, in each form
    window = "metrics.run_average_return(window)"
    assert _used_by(ast.parse("run_average_return(r, 'episodes', 5)"), window)
    assert not _used_by(ast.parse("run_average_return(r, mode='episodes')"), window)
    digest = "report.AnalysisReport.config_digest"
    assert _used_by(ast.parse("report.config_digest"), digest)
    assert not _used_by(ast.parse("AnalysisReport(config=c)"), digest)
    seeds = "pipeline.fitting_seed_for"
    assert _used_by(ast.parse("fit_mle(f, x, fitting_seed=fitting_seed_for(7, 0))"), seeds)
    assert not _used_by(ast.parse("from rleval.pipeline import fitting_seed_for"), seeds)
