"""Imports and private names in src/dqpt, checked on the syntax tree.

Every imported name is used in its module, or its import statement carries
a ``noqa`` comment that gives the reason in parentheses.  An import inside a
function body, made there so that ``import dqpt.cli`` does not load it,
carries a comment that gives the reason in parentheses too; a fresh
interpreter checks that ``import dqpt.cli`` leaves the pools' modules and
numpy.polynomial unloaded.  The time blocks
of the echo loops and their 64-byte-aligned buffers are decided in one
place: _BLOCK_BYTES and _aligned_empty are named only in mode_dynamics,
which defines the buffers, and observables, whose _echo_blocks is the one
function that allocates echo buffers.  The task table _TASKS is read
only in cli._write_task, which a task run and a sweep cell both call.
Every output file of the CLI opens in cli._atomic_open, the one place
that refuses a directory.
Every private name README.md puts in backticks still resolves: to a
definition in src/dqpt, or to a name in the tests (the oracles keep some
that the library has dropped).
"""

import ast
import os
import pathlib
import re
import subprocess
import sys

import dqpt

SRC = pathlib.Path(dqpt.__file__).parent
ROOT = pathlib.Path(__file__).parent.parent
NOQA = re.compile(r"#\s*noqa:\s*[A-Z]+\d+\s*\((?P<reason>[^)]*\w[^)]*)\)")
REASON = re.compile(r"#[^(]*\((?P<reason>[^)]*\w[^)]*)\)")
# what only a pool or numpy.polynomial loads; import dqpt.cli must load none of it
LAZY = ("multiprocessing", "concurrent.futures", "logging", "numpy.polynomial")
# imports that only the benchmark's tracer looks up (perfbench/tracer.py WRAPPED)
TRACED = {
    ("cli", "null_work_decomposition"),
    ("criticality", "boundary_partition"),
    ("mode_dynamics", "delta_theta"),
    ("observables", "dispersion"),
}


def parsed():
    """module name -> (source lines, syntax tree), for every module of dqpt."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        out[path.stem] = (text.splitlines(), ast.parse(text))
    return out


def names_read(tree):
    """Names a module reads, with the strings of its __all__."""
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return read


def unused_imports():
    """(module, name) -> the noqa reason on its import, or None."""
    out = {}
    for module, (lines, tree) in parsed().items():
        read = names_read(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if alias.name == "*" or name in read:
                    continue
                statement = " ".join(lines[node.lineno - 1 : node.end_lineno])
                match = NOQA.search(statement)
                out[module, name] = match.group("reason") if match else None
    return out


def test_every_unused_import_says_why_it_is_kept():
    unused = unused_imports()
    assert [key for key, reason in unused.items() if reason is None] == []
    assert set(unused) == TRACED


def lazy_imports():
    """(module, function, line) -> the reason in parentheses in the comment
    on an import statement inside a function body, or None."""
    out = {}
    for module, (lines, tree) in parsed().items():
        found = {}  # line -> (innermost function, reason); ast.walk meets outer functions first
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    statement = " ".join(lines[node.lineno - 1 : node.end_lineno])
                    match = REASON.search(statement)
                    found[node.lineno] = fn.name, match.group("reason") if match else None
        out.update({(module, fn, line): reason for line, (fn, reason) in found.items()})
    return out


def test_every_lazy_import_says_why_it_is_lazy():
    lazy = lazy_imports()
    assert [key for key, reason in lazy.items() if reason is None] == []
    assert {(module, fn) for module, fn, _ in lazy} == {
        ("cli", "_pooled_outcomes"),
        ("observables", "rounds"),
    }


def test_the_finder_sees_a_lazy_import_without_a_reason(tmp_path, monkeypatch):
    source = (
        "import os\nos\n"
        "def f():\n    import re  # (kept out of start-up)\n    re\n"
        "def g():\n    if os:\n        from sys import (  # no reason\n"
        "            argv,\n        )\n    argv\n"
    )
    (tmp_path / "a.py").write_text(source, encoding="utf-8")
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    assert lazy_imports() == {("a", "f", 4): "kept out of start-up", ("a", "g", 8): None}


def test_importing_the_cli_loads_no_pool_and_no_polynomial_module():
    code = f"import sys, dqpt.cli; print([m for m in {LAZY!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"


def test_the_finder_sees_an_unused_import(tmp_path, monkeypatch):
    source = "import os\nimport sys  # noqa: F401 (kept)\nimport re\nre\nos = 1\n"
    (tmp_path / "a.py").write_text(source, encoding="utf-8")
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    assert unused_imports() == {("a", "os"): None, ("a", "sys"): "kept"}


def named(tree):
    """Every identifier a tree names: read, assigned, imported, attribute or def."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.asname or node.name)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
    return out


def test_block_size_and_aligned_buffers_are_named_in_one_place():
    modules = parsed()
    for name in ("_BLOCK_BYTES", "_aligned_empty"):
        naming = {module for module, (_, tree) in modules.items() if name in named(tree)}
        assert "observables" in naming
        assert naming <= {"mode_dynamics", "observables"}
    # in observables, only _echo_blocks allocates aligned buffers
    _, tree = modules["observables"]
    allocating = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and "_aligned_empty" in named(node)
    }
    assert allocating == {"_echo_blocks"}


def test_one_function_runs_the_task_handlers():
    # _write_task is the one function that reads the task table, so a task
    # run and a sweep cell share one handler call and one CSV writer
    _, tree = parsed()["cli"]
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    reading = {fn.name for fn in functions if "_TASKS" in named(fn)}
    assert reading == {"_write_task"}
    assert {fn.name for fn in functions if "_write_task" in named(fn)} == {
        "_write_task",
        "_run_task",
        "_sweep_cell",
    }
    # the rows of every CSV, the sweep index's too, go through one loop
    assert {fn.name for fn in functions if "_write_csv" in named(fn)} == {
        "_write_csv",
        "_write_task",
        "_run_sweep",
    }


def writes(tree):
    """Whether a tree opens a file for writing: open() with a mode that is not
    read-only, or a Path's write_text/write_bytes."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", "")
        if name in ("write_text", "write_bytes"):
            return True
        modes = [kw.value for kw in node.keywords if kw.arg == "mode"] + node.args[1:2]
        if name == "open" and any(
            not (isinstance(m, ast.Constant) and set(str(m.value)) <= set("rbt")) for m in modes
        ):
            return True
    return False


def test_one_function_opens_every_output_and_refuses_a_directory():
    # every file a task, a sweep cell or a sweep writes opens through
    # _atomic_open, which refuses a directory before its .tmp opens; a
    # writer that opens its files before its work then fails before it
    _, tree = parsed()["cli"]
    checking = {"IsADirectoryError", "isdir"}
    top = {getattr(node, "name", "<module>"): node for node in tree.body}
    assert {name for name, node in top.items() if checking & named(node)} == {"_atomic_open"}
    assert {name for name, node in top.items() if writes(node)} == {"_atomic_open"}


def test_the_writer_finder_sees_each_way_to_write():
    source = (
        "def a(p):\n    open(p, 'w')\n"
        "def b(p):\n    open(p, mode='ab')\n"
        "def c(p):\n    p.write_text('')\n"
        "def d(p, m):\n    open(p, m)\n"
        "def e(p):\n    open(p)\n"
        "def f(p):\n    open(p, 'rb')\n"
        "def g(p):\n    open(p, encoding='utf-8')\n"
    )
    tree = ast.parse(source)
    assert [fn.name for fn in tree.body if writes(fn)] == ["a", "b", "c", "d"]


def defined(tree):
    """Names a tree binds: assigned, or a def or class."""
    return {
        node.id if isinstance(node, ast.Name) else node.name
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store))
        or isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }


# `_name` or `module._name` in backticks
README_NAME = re.compile(r"`(?:(?P<module>[A-Za-z]\w*)\.)?(?P<name>_[A-Za-z0-9]\w*)`")


def unresolved_readme_names(text):
    """Backticked private names of text that src/dqpt does not define and
    tests/ does not name; `module._name` must be defined in that module when
    it is a dqpt module, and names no project code otherwise (`os._exit`)."""
    modules = {module: defined(tree) for module, (_, tree) in parsed().items()}
    in_src = set().union(*modules.values())
    in_tests = set().union(
        *(named(ast.parse(p.read_text(encoding="utf-8"))) for p in (ROOT / "tests").glob("*.py"))
    )
    out = set()
    for match in README_NAME.finditer(text):
        module, name = match.group("module", "name")
        if module is not None:
            if module in modules and name not in modules[module]:
                out.add(match.group(0))
        elif name not in in_src | in_tests:
            out.add(match.group(0))
    return out


def test_every_private_name_in_the_readme_resolves():
    assert unresolved_readme_names((ROOT / "README.md").read_text(encoding="utf-8")) == set()


def test_the_finder_sees_an_unresolved_readme_name():
    text = (
        "`_echo_blocks`, `_split`, `_RateQuad`, `observables._node_data`, `model._node_data`,"
        " `os._exit`"
    )
    assert unresolved_readme_names(text) == {"`_RateQuad`", "`model._node_data`"}
