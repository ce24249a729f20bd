"""tools/size.py: every library module is listed with its code lines, the
total is their sum, and blank, comment and docstring lines are left out."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZE = ROOT / "tools" / "size.py"


def test_size_lists_every_module_and_their_sum():
    done = subprocess.run([sys.executable, str(SIZE)], capture_output=True, text=True,
                          check=True, timeout=60)
    rows = [line.split() for line in done.stdout.splitlines()]
    *modules, (total, label) = rows
    assert label == "total"
    assert [name for _, name in modules] == sorted(p.name for p in
                                                   (ROOT / "src" / "arrzeta").glob("*.py"))
    assert all(int(n) > 0 for n, _ in modules)
    assert int(total) == sum(int(n) for n, _ in modules)


def test_size_counts_code_lines_only():
    spec = importlib.util.spec_from_file_location("size", SIZE)
    size = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(size)
    source = '''"""Module docstring,
two lines."""

# a comment line
X = 1  # code with a comment


class C:
    """One line."""

    def f(self):
        """Three
        lines
        here."""
        return ("a string that is "
                "not a docstring")
'''
    # X = 1, class C:, def f, and the two lines of the return
    assert size.code_lines(source) == 5
