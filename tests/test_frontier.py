"""tools/frontier.py: a case's line, made in a fresh process, carries both
kinds of seconds, the digests of the flag sum and of the poles computed
here, and the number of Laurent coefficients built."""

import hashlib
import json
import pickle
import subprocess
import sys
from pathlib import Path

from arrzeta import local_zeta
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
                         "sha256", "poles_sha256", "laurent"]
    assert all(got[k] >= 0 for k in got if k.endswith("_s"))
    assert (got["case"], got["flats"], got["dense"], got["terms"]) == ("veys", 13, 8, 12)
    digest = hashlib.sha256(pickle.dumps(_flag_sum(veys(), False), protocol=4)).hexdigest()
    assert got["sha256"] == digest
    # veys's cancelled -1/3 is ruled out by its exact one-variable read
    pairs = sorted((f.coeffs + (f.const,), k) for f, k in local_zeta(veys()).denominator.items())
    assert len(pairs) == 5
    assert got["poles_sha256"] == hashlib.sha256(pickle.dumps(pairs, protocol=4)).hexdigest()
    assert got["laurent"] == 0
