"""tools/frontier.py: a case's line, made in a fresh process, carries both
kinds of seconds, the digests of the flag sum and of the poles computed
here, and the number of forms that the pole decision settles by
division."""

import hashlib
import json
import pickle
import subprocess
import sys
from pathlib import Path

from arrzeta import Arrangement, local_zeta, multivariate_local_zeta
from arrzeta.examples import veys
from arrzeta.zeta import _flag_sum

ROOT = Path(__file__).resolve().parent.parent


def _poles_sha256(z):
    pairs = sorted((f.coeffs + (f.const,), k) for f, k in z.denominator.items())
    return len(pairs), hashlib.sha256(pickle.dumps(pairs, protocol=4)).hexdigest()


def test_frontier_case_line():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "frontier.py"), "--case", "veys",
                           "--case", "veys i mod 2", "--src", str(ROOT / "src")],
                          capture_output=True, text=True, check=True, timeout=120)
    got, mod2 = map(json.loads, done.stdout.splitlines())
    assert list(got) == ["case", "lattice_s", "lattice_ref_s", "sum_s", "sum_ref_s",
                         "poles_s", "poles_ref_s", "peak_rss_mb", "flats", "dense", "terms",
                         "sha256", "poles_sha256", "divided"]
    assert all(got[k] >= 0 for k in got if k.endswith("_s"))
    assert (got["case"], got["flats"], got["dense"], got["terms"]) == ("veys", 13, 8, 12)
    digest = hashlib.sha256(pickle.dumps(_flag_sum(veys(), False), protocol=4)).hexdigest()
    assert got["sha256"] == digest
    # veys's cancelled -1/3 is ruled out by its exact one-variable read
    count, digest = _poles_sha256(local_zeta(veys()))
    assert count == 5
    assert (got["poles_sha256"], got["divided"]) == (digest, 0)
    # with hyperplane i in factor i mod 2 the -1/3, 2 s1 + s2 + 1, is left
    # open by the modular read and settled by dividing its carriers'
    # numerator, the one form so settled
    arr = veys()
    arr = Arrangement(arr.n, arr.forms, arr.mults,
                      factors=[[m * (i % 2 == j) for i, m in enumerate(arr.mults)]
                               for j in range(2)])
    count, digest = _poles_sha256(multivariate_local_zeta(arr))
    assert count == 6
    assert (mod2["case"], mod2["poles_sha256"], mod2["divided"]) == ("veys i mod 2", digest, 1)


def test_frontier_against_a_checkout():
    # --against runs both sides, here this checkout twice, and prints one
    # summary line per case instead of the children's lines
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "frontier.py"), "--case", "veys",
                           "--against", str(ROOT), "--rounds", "1"],
                          capture_output=True, text=True, check=True, timeout=120)
    [got] = map(json.loads, done.stdout.splitlines())
    times = ["lattice_s", "lattice_ref_s", "sum_s", "sum_ref_s", "poles_s", "poles_ref_s"]
    assert list(got) == ["case", "this", "other", "lower", "same"]
    assert got["case"] == "veys"
    for side in ("this", "other"):
        assert list(got[side]) == times + ["peak_rss_mb"]
        assert all(v >= 0 for v in got[side].values())
    assert list(got["lower"]) == times
    assert all(rounds in ([], [1]) for rounds in got["lower"].values())
    assert got["same"] == {"sha256": True, "poles_sha256": True, "divided": True}
