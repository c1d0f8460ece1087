"""One writer: no module of `src/rleval` opens a file for writing or makes a
directory, except `ingest.write_file`, which opens every file the package
writes, and `ingest.write_files`, which makes every directory it writes
into. A call found elsewhere is a second writer, which would have to keep
the stale-file and input rules of `ingest.refuse_stale_files` itself."""

import ast
import errno
import os
from pathlib import Path

import pytest

import rleval
from rleval.ingest import write_file

PACKAGE = Path(rleval.__file__).parent

WRITER = {("ingest", "write_file", "open"), ("ingest", "write_files", "mkdir")}

_WRITING_METHODS = {"write_text", "write_bytes", "mkdir", "makedirs"}


def _mode(call):
    """The mode an `open` call gives, or None where it is not a constant."""
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r"))
    return mode.value if isinstance(mode, ast.Constant) else None


def _writing_call(call):
    """The name of what `call` writes with, or None where it writes nothing."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        mode = _mode(call)
        return "open" if mode is None or set(mode) & set("wax+") else None
    if isinstance(func, ast.Attribute) and func.attr in _WRITING_METHODS:
        return func.attr
    return None


def _writing_calls(tree, module):
    """(module, enclosing top-level function or None, call name, line) of
    each writing call in `tree`."""
    found = []

    def visit(node, function):
        if isinstance(node, ast.Call) and (name := _writing_call(node)):
            found.append((module, function, name, node.lineno))
        for child in ast.iter_child_nodes(node):
            inner = function
            if function is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            visit(child, inner)

    visit(tree, None)
    return found


def _package_calls():
    return [call for path in sorted(PACKAGE.glob("*.py"))
            for call in _writing_calls(ast.parse(path.read_text(encoding="utf-8")), path.stem)]


def test_only_the_writer_writes():
    calls = _package_calls()
    outside = [f"{module}.{function}:{line} {name}" for module, function, name, line in calls
               if (module, function, name) not in WRITER]
    assert outside == []
    # the writer's calls are still there, each once
    assert sorted((m, f, n) for m, f, n, _ in calls) == sorted(WRITER)


def test_the_finder_sees_each_form():
    source = """
def f(p, fd):
    open(p)
    open(p, "rb")
    open(p, mode="r", encoding="utf-8")
    open(p, "w")
    open(fd, mode="ab")
    open(p, "r+")
    open(p, some_mode)
    p.write_text("x")
    p.write_bytes(b"x")
    p.parent.mkdir(parents=True)
    os.makedirs(p)
    p.read_text()
"""
    names = [name for _, _, name, _ in _writing_calls(ast.parse(source), "m")]
    assert names == ["open", "open", "open", "open", "write_text", "write_bytes", "mkdir",
                     "makedirs"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_failed_write_names_its_file():
    """A write that fails after the open, as on a full disk, raises an
    OSError without a file name; the writer adds it, once."""
    with pytest.raises(OSError) as info:
        write_file("/dev/full", "x")
    assert info.value.errno == errno.ENOSPC
    assert info.value.filename == "/dev/full" and str(info.value).count("/dev/full") == 1
