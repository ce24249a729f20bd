"""tools/frontier.py: a case's line, made in a fresh process, carries both
kinds of seconds and the digest of the flag sum computed here."""

import hashlib
import json
import pickle
import subprocess
import sys
from pathlib import Path

from arrzeta.examples import veys
from arrzeta.zeta import _flag_sum

ROOT = Path(__file__).resolve().parent.parent


def test_frontier_case_line():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "frontier.py"), "--case", "veys",
                           "--src", str(ROOT / "src")],
                          capture_output=True, text=True, check=True, timeout=120)
    [line] = done.stdout.splitlines()
    got = json.loads(line)
    assert list(got) == ["case", "lattice_s", "lattice_ref_s", "sum_s", "sum_ref_s",
                         "poles_s", "poles_ref_s", "peak_rss_mb", "flats", "dense", "terms",
                         "sha256"]
    assert all(got[k] >= 0 for k in got if k.endswith("_s"))
    assert (got["case"], got["flats"], got["dense"], got["terms"]) == ("veys", 13, 8, 12)
    digest = hashlib.sha256(pickle.dumps(_flag_sum(veys(), False), protocol=4)).hexdigest()
    assert got["sha256"] == digest
