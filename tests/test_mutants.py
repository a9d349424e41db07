"""The mutation table (tests/mutants.py) stays applicable as src/ changes.

A row whose old text is not in its file exactly once cannot be applied;
the full mutation run only reports it as stale after about 20 minutes, so
tier-1 checks every row here.
"""

from mutants import MUTANTS, ROOT


def test_every_mutant_row_names_text_that_occurs_once():
    stale = []
    for row, (path, old, new, breaks) in enumerate(MUTANTS, start=1):
        count = (ROOT / path).read_text(encoding="utf-8").count(old)
        if count != 1 or new == old:
            stale.append(f"row {row} ({breaks}): {path} holds the old text {count} times")
    assert not stale, "\n".join(stale)
