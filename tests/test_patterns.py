"""The record layout lives in fcsim.patterns alone, and loading it loads no engine."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fcsim import estimators, fockstats, patterns, trialsim

LAYOUT = {name for name in vars(patterns) if name.isupper() and not name.startswith("_")}
# module -> the layout names it reads
READERS = {fockstats: ("AT_LEAST", "DETECTOR_BITS", "PATTERN_MASKS", "PATTERN_MATRIX", "RATIOS"),
           trialsim: ("MASK_H", "MASK_S", "MASK_R1", "MASK_R2"),
           estimators: ("PATTERN_MASKS", "PATTERN_MATRIX", "PATTERNS", "RATIOS")}


def test_patterns_loads_no_other_fcsim_module():
    """In a fresh interpreter, importing fcsim.patterns adds no fcsim module
    but itself to those the package's __init__ loads."""
    src = str(Path(patterns.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = ("import sys, fcsim; before = set(sys.modules); import fcsim.patterns; "
              "print(sorted(m for m in set(sys.modules) - before "
              "if m.split('.')[0] == 'fcsim'))")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "['fcsim.patterns']"


def test_readers_share_the_very_tables():
    for module, names in READERS.items():
        for name in names:
            assert getattr(module, name) is getattr(patterns, name), (module.__name__, name)


def test_layout_is_assigned_in_one_module():
    """No other module of the package assigns a name of the layout at its top level."""
    for path in Path(patterns.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assigned = {n.id for node in tree.body if isinstance(node, ast.Assign)
                    for target in node.targets for n in ast.walk(target)
                    if isinstance(n, ast.Name)}
        assert assigned & LAYOUT == (LAYOUT if path.name == "patterns.py" else set()), path.name


def _ratio_sites(tree) -> list:
    """Lines of the tree that call math.prod or unpack a RATIOS entry."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "prod" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "math"
            or isinstance(node, ast.Assign) and isinstance(node.value, ast.Subscript)
            and isinstance(node.value.value, ast.Name) and node.value.value.id == "RATIOS"
            and any(isinstance(target, ast.Tuple) for target in node.targets)]


def test_ratio_arithmetic_is_written_in_one_module():
    """Only fcsim.patterns multiplies the patterns of a correlation: every
    other module takes a RATIOS value from patterns.ratio."""
    for path in Path(patterns.__file__).parent.glob("*.py"):
        sites = _ratio_sites(ast.parse(path.read_text(encoding="utf-8")))
        assert bool(sites) == (path.name == "patterns.py"), (path.name, sites)


@pytest.mark.parametrize("name", sorted(patterns.RATIOS))
def test_ratio_on_arrays_is_the_ratio_of_each_row(name):
    """patterns.ratio over arrays gives each row the bits it gives that row's
    floats, zero denominators included; floats come back as float and bool.
    A defined value is prod(p_num) / prod(p_den), an undefined one prod(p_num)."""
    rng = np.random.default_rng(36)
    rows = rng.random((64, len(patterns.PATTERN_MASKS)))
    rows[rng.random(rows.shape) < 0.2] = 0.0
    value, defined = patterns.ratio(dict(zip(patterns.PATTERN_MASKS, rows.T)), name)
    assert defined.any() and not defined.all()
    num, den = patterns.RATIOS[name]
    for row, v, ok in zip(rows.tolist(), value.tolist(), defined.tolist()):
        p = dict(zip(patterns.PATTERN_MASKS, row))
        got, got_ok = patterns.ratio(p, name)
        assert type(got) is float and type(got_ok) is bool
        assert (got.hex(), got_ok) == (v.hex(), ok)
        d = math.prod(p[n] for n in den)
        assert ok == (d > 0)
        assert got == math.prod(p[n] for n in num) / (d if ok else 1.0)
