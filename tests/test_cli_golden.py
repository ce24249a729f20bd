"""Golden --json output: every subcommand's stdout compared byte for byte.

`tests/data/cli/golden.json` maps each command line below to the exit code
and stdout that `arrzeta.cli.run` gave for it.  A command that exits with 2
is stored with its code only; the test checks that it prints nothing on
stdout and an `error:` line on stderr.  A change that alters any stored
byte is a change to the --json output and must be recorded as one; to store
the new bytes, run this file as a script:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from arrzeta.cli import run

DATA = Path(__file__).parent / "data" / "cli"
GOLDEN = DATA / "golden.json"

# input, a point in its ambient space, a point in its wall space, and two
# points to separate in the wall space
INPUTS = [
    (["--example", "veys"], "0,0,1", "0,0,0,0,0", ("0,0,0,0,0", "1,1,1,1,1")),
    (["--example", "threelines"], "0,1", "1,-1,0", ("1/2,0,0", "2,1,1")),
    (["--example", "boolean2"], "1,0", "1,0", ("0,0", "1,1")),
    (["@factored.json"], "0,1", "1,-1,0", ("0,0,0", "1,1,1")),
    (["@affine.json"], "1,0", "1,0,0", ("0,0,0", "1,1,1")),
]


def _commands(point, wall_point, pair):
    return [
        ["analyze"],
        ["zeta"], ["zeta", "--global"], ["zeta", "--at", point],
        ["zeta", "--multi"], ["zeta", "--multi", "--global"],
        ["zeta", "--multi", "--at", point],
        ["walls"], ["walls", "--localize", wall_point],
        ["walls", "--separate", *pair],
        ["walls", "--localize", wall_point, "--separate", *pair],
        ["adapted"], ["nd"],
        ["smc"], ["smc", "--broots", "@roots_small.json"],
        ["smc", "--broots", "@roots_veys_short.json"],
        ["multi-nd"],
        ["multi-smc", "--zero-locus", "@locus_full.json"],
        ["multi-smc", "--zero-locus", "@locus_short.json"],
    ]


CASES = [[cmd[0], *source, *cmd[1:], "--json"]
         for source, point, wall_point, pair in INPUTS
         for cmd in _commands(point, wall_point, pair)]
CASES.append(["vmono-demo", "--json"])


def call(argv):
    """Exit code, stdout and stderr of one in-process run."""
    argv = [str(DATA / a[1:]) if a.startswith("@") else a for a in argv]
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def capture():
    golden = {}
    for argv in CASES:
        code, out, _ = call(argv)
        golden[" ".join(argv)] = {"code": code} if code == 2 else {"code": code, "stdout": out}
    return golden


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=[" ".join(a) for a in CASES])
def test_cli_output_matches_golden(golden, argv):
    code, out, err = call(argv)
    want = golden[" ".join(argv)]
    assert code == want["code"]
    if code == 2:
        assert out == "" and err.startswith("error: ")
    else:
        assert out == want["stdout"] and err == ""


ZETA_CASES = [argv for argv in CASES if argv[0] == "zeta"]


@pytest.mark.parametrize("argv", ZETA_CASES, ids=[" ".join(a) for a in ZETA_CASES])
def test_zeta_text_prints_the_golden_lines(golden, argv):
    # the text route builds no --json data, and prints exactly the lines
    # stored in the golden --json output of the same command
    want = golden[" ".join(argv)]
    code, out, err = call(argv[:-1])
    assert code == want["code"]
    if code == 2:
        assert out == "" and err.startswith("error: ")
    else:
        assert out.splitlines() == json.loads(want["stdout"])["lines"] and err == ""


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
