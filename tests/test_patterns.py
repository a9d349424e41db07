"""The record layout lives in fcsim.patterns alone, and loading it loads no engine."""

import ast
import os
import subprocess
import sys
from pathlib import Path

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
