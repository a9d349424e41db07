"""What the benchmark in bench/ calls of fcsim still exists, in the form it calls.

The benchmark scripts are read as source with ast, never imported or run, so
this test changes nothing there. A change that removes or renames a name,
a parameter or a CLI option the benchmark uses fails here, in the unit
tests, instead of in a benchmark run.
"""

import argparse
import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

import fcsim
from fcsim import cli, trialsim

BENCH = Path(__file__).resolve().parent.parent / "bench"
SCRIPTS = sorted(BENCH.glob("*.py"))


def _trees(path):
    """The script's syntax tree, and those of the Python programs it holds as
    string constants (a child interpreter's script)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and "fcsim" in node.value and "import" in node.value:
            try:
                yield ast.parse(node.value)
            except SyntaxError:
                pass


def _fcsim_names(trees):
    """Local name -> fcsim object, from every fcsim import in the trees;
    [(line, dotted name)] of imports that name nothing."""
    names, missing = {}, []
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "fcsim":
                        module = importlib.import_module(alias.name)
                        names[alias.asname or "fcsim"] = module if alias.asname else fcsim
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fcsim":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    try:
                        value = getattr(module, alias.name)
                    except AttributeError:
                        try:
                            value = importlib.import_module(f"{node.module}.{alias.name}")
                        except ImportError:
                            missing.append((node.lineno, f"{node.module}.{alias.name}"))
                            continue
                    names[alias.asname or alias.name] = value
    return names, missing


def _is_fcsim(obj) -> bool:
    """A module or class of fcsim, whose attributes the benchmark may read."""
    if inspect.ismodule(obj):
        return obj.__name__.split(".")[0] == "fcsim"
    return inspect.isclass(obj) and obj.__module__.split(".")[0] == "fcsim"


_MISSING = object()


def _resolve(node, names):
    """The fcsim object an expression names (fcsim.cli.main, trialsim.MASK_H,
    load_config, ...), _MISSING if it names an attribute fcsim lacks, None if
    it is not a name into fcsim."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _resolve(node.value, names)
        if base is _MISSING:
            return _MISSING
        if base is None or not _is_fcsim(base):
            return None
        return getattr(base, node.attr, _MISSING)
    return None


def _script_facts(path):
    trees = list(_trees(path))
    names, missing = _fcsim_names(trees)
    return trees, names, missing


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_benchmark_reads_only_existing_attributes(path):
    trees, names, missing = _script_facts(path)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and _resolve(node, names) is _MISSING \
                    and _resolve(node.value, names) is not _MISSING:
                missing.append((node.lineno, ast.unparse(node)))
    assert missing == [], f"{path.name} reads names fcsim no longer has"


def _calls(trees, names):
    """(line, callee, positional argument nodes, keyword nodes) of every call
    into fcsim, directly or as ops.step(name, callee, *args, **kwargs)."""
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callee = _resolve(node.func, names)
            args = node.args
            if callee is None and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "step" and len(args) >= 2:
                callee, args = _resolve(args[1], names), args[2:]
            if callee is not None and callee is not _MISSING and callable(callee):
                yield node.lineno, callee, args, node.keywords


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_benchmark_calls_match_signatures(path):
    """Every call binds to its callee's signature: the positional count, when
    the call spells it out, and every keyword it names."""
    trees, names, _ = _script_facts(path)
    wrong, checked = [], 0
    for line, callee, args, keywords in _calls(trees, names):
        try:
            signature = inspect.signature(callee)
        except ValueError:  # a builtin without a signature
            continue
        named = {kw.arg: None for kw in keywords if kw.arg is not None}
        checked += 1
        try:
            if any(isinstance(a, ast.Starred) for a in args) or len(named) < len(keywords):
                signature.bind_partial(**named)  # *args or **kwargs: the names only
            else:
                signature.bind(*[None] * len(args), **named)
        except TypeError as exc:
            wrong.append((line, callee.__qualname__, str(exc)))
    assert wrong == [], f"{path.name} calls fcsim in a form it no longer takes"
    if path.name == "workloads.py":
        assert checked > 20  # the scan saw the calls, through ops.step too


def _subcommand_options():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: set(p._option_string_actions) for name, p in sub.choices.items()}


def _string(node):
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None


def test_benchmark_cli_flags_exist():
    """Every --flag in the workloads is an option of an fcsim subcommand; in an
    argument list that starts with a subcommand, or is added to one with +=,
    an option of that subcommand."""
    options = _subcommand_options()
    every = set().union(*options.values())
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    argv_lists = []  # (subcommand, list node)
    named = {}  # variable -> subcommand of the list assigned to it
    for node in ast.walk(tree):
        if isinstance(node, ast.List) and node.elts and _string(node.elts[0]) in options:
            argv_lists.append((node.elts[0].value, node))
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.List) \
                and node.value.elts and _string(node.value.elts[0]) in options:
            named.update((t.id, node.value.elts[0].value) for t in node.targets
                         if isinstance(t, ast.Name))
    for node in ast.walk(tree):
        if isinstance(node, ast.AugAssign) and isinstance(node.value, ast.List) \
                and getattr(node.target, "id", None) in named:
            argv_lists.append((named[node.target.id], node.value))
    flags = [(node.lineno, node.value) for node in ast.walk(tree)
             if (_string(node) or "").startswith("--")]
    wrong = [(line, flag) for line, flag in flags if flag not in every]
    wrong += [(e.lineno, f"{command} {_string(e)}") for command, argv in argv_lists
              for e in argv.elts
              if (_string(e) or "").startswith("--") and _string(e) not in options[command]]
    assert len(flags) > 10 and len(argv_lists) > 5
    assert wrong == []


def test_tracing_layers_import():
    tree = ast.parse((BENCH / "tracing.py").read_text(encoding="utf-8"))
    layers = next(ast.literal_eval(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "LAYERS" for t in node.targets))
    for layer in layers:
        importlib.import_module("fcsim." + layer)


def test_click_records_expose_what_the_benchmark_compares(primary):
    """bench/workloads.py compares records by trigger, delay and mask bytes
    and by manifest."""
    rec = trialsim.simulate_run(primary, seed=1, n_triggers=20_000, delay_cycles=3)
    for name in ("trigger", "delay", "mask", "manifest"):
        assert hasattr(rec, name), name
    assert rec.delay.tobytes() == np.full(rec.trigger.size, 3, dtype=np.uint16).tobytes()
    assert isinstance(rec.manifest, trialsim.RunManifest)
