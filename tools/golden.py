"""Rewrite the golden files under ``tests/golden/`` from the working tree.

Usage: python tools/golden.py

``tests/test_golden.py`` defines what the files hold and checks them in
Tier-1; this tool only writes them.  ``git diff tests/golden/`` then shows
what changed, and a change that alters them says why in CHANGES.md.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import test_golden  # noqa: E402

if __name__ == "__main__":
    if sys.argv[1:]:
        sys.exit(f"usage: python {sys.argv[0]} (it takes no options)")
    test_golden.GOLDEN.mkdir(exist_ok=True)
    for name in test_golden.RECORD:
        (test_golden.GOLDEN / name).write_bytes(test_golden.render(name).encode("utf-8"))
        print(f"wrote tests/golden/{name}")
