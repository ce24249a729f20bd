"""Command line behaviour: exit codes, output text, stable JSON."""

import json
import shutil
import subprocess
import sys

import pytest

import arrzeta.cli
from arrzeta import local_zeta, multivariate_local_zeta
from arrzeta.cli import build_parser, json_form, run, zeta_from_json, zeta_json

from conftest import threelines, threelines_factored, veys


def run_cli(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def factored_file(tmp_path):
    path = tmp_path / "tlf.json"
    path.write_text(json.dumps({
        "n": 2, "forms": [[1, 0], [0, 1], [1, -1]], "mults": [1, 1, 1],
        "factors": [[1, 0, 0], [0, 1, 1]], "name": "tl-factored"}))
    return str(path)


# ---------------------------------------------------------------------------
# input handling and exit codes

def test_no_arguments_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, [])
    assert code == 2


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, ["--help"])
    assert code == 0
    assert "analyze" in out and "vmono-demo" in out


def test_unknown_example_rejected(capsys):
    code, _, err = run_cli(capsys, ["analyze", "--example", "nope"])
    assert code == 2


def test_missing_input(capsys):
    code, _, err = run_cli(capsys, ["analyze"])
    assert code == 2
    assert "error:" in err


def test_missing_file(capsys):
    code, _, err = run_cli(capsys, ["analyze", "/no/such/file.json"])
    assert code == 2
    assert "error:" in err


def test_bad_json_file(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    code, _, err = run_cli(capsys, ["analyze", str(p)])
    assert code == 2
    assert "bad JSON" in err


def test_incomplete_arrangement_file(capsys, tmp_path):
    p = tmp_path / "half.json"
    p.write_text(json.dumps({"n": 2}))
    code, _, err = run_cli(capsys, ["analyze", str(p)])
    assert code == 2
    assert "forms" in err


def test_invalid_arrangement_file(capsys, tmp_path):
    p = tmp_path / "prop.json"
    p.write_text(json.dumps({"n": 2, "forms": [[1, 0], [2, 0]]}))
    code, _, err = run_cli(capsys, ["analyze", str(p)])
    assert code == 2
    assert "proportional" in err


@pytest.mark.parametrize("obj, field", [
    ({"n": 2, "forms": 5}, '"forms"'),
    ({"n": 2, "forms": [[1, 0], [0, 1], [1, 1]], "factors": 7}, '"factors"'),
    ({"n": 2, "forms": [[1.5, 0], [0, 1], [1, 1]]}, '"forms"'),
    ({"n": 2, "forms": [[1, 0], [0, 1]], "mults": [1, 1.5]}, '"mults"'),
    ({"n": "2", "forms": [[1, 0], [0, 1]]}, '"n"'),
    ({"n": 2, "forms": [[1, 0], [0, 1]], "name": ["x"]}, '"name"'),
    ({"n": 2, "forms": [[1, 0], [0, 1]], "name": 7}, '"name"'),
], ids=["forms-int", "factors-int", "float-entry", "float-mult", "n-string",
        "name-list", "name-int"])
def test_mistyped_arrangement_file(capsys, tmp_path, obj, field):
    p = tmp_path / "typed.json"
    p.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, ["analyze", str(p), "--json"])
    assert code == 2 and not out
    assert field in err


def test_roots_given_as_a_string(capsys, tmp_path):
    # a string is not read as a list of one-character roots
    p = tmp_path / "roots.json"
    p.write_text(json.dumps({"roots": "123"}))
    code, out, err = run_cli(capsys, ["smc", "--example", "threelines", "--broots", str(p)])
    assert code == 2 and not out
    assert '"roots" list' in err


# ---------------------------------------------------------------------------
# analyze

def test_analyze_veys_text(capsys):
    code, out, _ = run_cli(capsys, ["analyze", "--example", "veys"])
    assert code == 0
    assert "arrangement veys: 5 hyperplanes in C^3, degree 9" in out
    assert "characteristic polynomial: t^3 - 5*t^2 + 8*t - 4" in out
    assert "flats: 13" in out
    assert "log canonical threshold: 1/4" in out
    assert "candidate poles: -1/4, -2/7, -1/3, -1/2, -2/3, -1" in out
    assert "{1,2,3}  codim 2  N=3 nu=2" in out
    assert "{1,4,5}  codim 2  N=7 nu=2" in out


def test_analyze_json_stable(capsys):
    code, first, _ = run_cli(capsys, ["analyze", "--example", "veys", "--json"])
    assert code == 0
    code, second, _ = run_cli(capsys, ["analyze", "--example", "veys", "--json"])
    assert first == second
    data = json.loads(first)
    assert data["lct"] == "1/4"
    assert data["essential"] is True
    assert data["degree"] == 9
    assert len(data["dense_edges"]) == 8


# ---------------------------------------------------------------------------
# zeta

def test_zeta_text(capsys):
    code, out, _ = run_cli(capsys, ["zeta", "--example", "threelines"])
    assert code == 0
    assert "(-s + 2) / (s + 1)*(3*s + 2)" in out
    assert "poles: -2/3 (order 1), -1 (order 1)" in out


def test_zeta_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, ["zeta", "--example", "veys", "--json"])
    assert code == 0
    data = json.loads(out)
    assert zeta_from_json(data) == local_zeta(veys())
    code, again, _ = run_cli(capsys, ["zeta", "--example", "veys", "--json"])
    assert out == again


@pytest.mark.parametrize("coeffs, const", [([1.5], 1), ([3], "1"), ([True], 1)],
                         ids=["float", "str", "bool"])
def test_zeta_from_json_rejects_non_integer_forms(coeffs, const):
    # a denominator entry is never truncated: [1.5] is not the form s + 1
    data = {"variables": 1, "terms": [{"coef": "1", "denominator": [
        {"coeffs": coeffs, "const": const}]}]}
    with pytest.raises(ValueError, match="must be an integer"):
        zeta_from_json(data)


def test_zeta_global_matches_local(capsys):
    code, out_l, _ = run_cli(capsys, ["zeta", "--example", "veys", "--json"])
    code_g, out_g, _ = run_cli(capsys, ["zeta", "--example", "veys", "--global", "--json"])
    assert code == 0 and code_g == 0
    a, b = json.loads(out_l), json.loads(out_g)
    for key in ("terms", "numerator", "denominator", "poles"):
        assert a[key] == b[key]


@pytest.mark.parametrize("flag", [["--global"], ["--at", "0,1"]], ids=["global", "at"])
def test_zeta_options_do_not_leak_into_the_next_call(capsys, flag):
    code, first, _ = run_cli(capsys, ["zeta", "--example", "threelines", "--json"])
    code_f, flagged, _ = run_cli(capsys, ["zeta", "--example", "threelines", "--json"] + flag)
    code_l, plain, _ = run_cli(capsys, ["zeta", "--example", "threelines", "--json"])
    assert code == code_f == code_l == 0
    data = json.loads(plain)
    assert plain == first != flagged
    assert data["lines"][0].startswith("univariate local zeta")
    encoded = json.dumps(zeta_json(local_zeta(threelines())), default=json_form)
    assert json.loads(encoded)["terms"] == data["terms"]


def test_parser_built_once(monkeypatch, capsys):
    built = []

    def counted():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(arrzeta.cli, "build_parser", counted)
    arrzeta.cli._parser.cache_clear()
    try:
        for argv in (["zeta", "--example", "veys"], ["--help"], ["nd", "--example", "veys"]):
            run_cli(capsys, argv)
    finally:
        arrzeta.cli._parser.cache_clear()
    assert built == [1]


def test_zeta_at_point(capsys):
    code, out, _ = run_cli(capsys, ["zeta", "--example", "threelines", "--at", "0,1"])
    assert code == 0
    assert "poles: -1 (order 1)" in out


def test_zeta_global_rejects_point(capsys):
    code, out, err = run_cli(capsys, ["zeta", "--example", "veys", "--global",
                                      "--at", "0,0,1"])
    assert code == 2 and not out
    assert "--at" in err and "--global" in err


def test_zeta_multi(capsys, factored_file):
    code, out, _ = run_cli(capsys, ["zeta", factored_file, "--multi"])
    assert code == 0
    assert "s1 + 2*s2 + 2" in out
    code, out, _ = run_cli(capsys, ["zeta", factored_file, "--multi", "--json"])
    data = json.loads(out)
    assert zeta_from_json(data) == multivariate_local_zeta(threelines_factored())


def test_zeta_multi_needs_factors(capsys):
    code, _, err = run_cli(capsys, ["zeta", "--example", "veys", "--multi"])
    assert code == 2
    assert "factorization" in err


# ---------------------------------------------------------------------------
# walls

def test_walls_text(capsys):
    code, out, _ = run_cli(capsys, ["walls", "--example", "boolean2"])
    assert code == 0
    assert "dense edge wall set of boolean2: 2 families" in out
    assert "normal [0, 1]  offsets 0" in out
    assert "normal [1, 0]  offsets 0" in out


def test_walls_localize_and_separate(capsys):
    code, out, _ = run_cli(capsys, [
        "walls", "--example", "boolean2", "--localize", "1,0",
        "--separate", "0,0", "1,1"])
    assert code == 0
    assert "walls through 1,0: 2" in out
    assert "walls separating 0,0 from 1,1: 2" in out


def test_walls_json(capsys):
    code, out, _ = run_cli(capsys, ["walls", "--example", "threelines", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["families"] == [
        {"normal": [0, 0, 1], "offsets": ["0"]},
        {"normal": [0, 1, 0], "offsets": ["0"]},
        {"normal": [1, 0, 0], "offsets": ["0"]},
        {"normal": [1, 1, 1], "offsets": ["0"]}]


# ---------------------------------------------------------------------------
# adapted

def test_adapted_threelines(capsys):
    code, out, _ = run_cli(capsys, ["adapted", "--example", "threelines"])
    assert code == 0
    assert "adapted vector: 2/3,2/3,2/3" in out
    assert "validation: PASS" in out


def test_adapted_json(capsys):
    code, out, _ = run_cli(capsys, ["adapted", "--example", "veys", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["beta"] == ["1/2", "5/8", "5/8", "5/8", "5/8"]
    assert data["valid"] is True


def test_adapted_rejects_decomposable(capsys):
    code, _, err = run_cli(capsys, ["adapted", "--example", "boolean2"])
    assert code == 2
    assert "indecomposable" in err


# ---------------------------------------------------------------------------
# nd and smc

def test_nd_veys(capsys):
    code, out, _ = run_cli(capsys, ["nd", "--example", "veys"])
    assert code == 0
    assert "-n/d = -1/3 with n = 3, d = 9" in out
    assert "candidate pole: yes" in out
    assert "pole of the local zeta function: no" in out
    assert out.rstrip().endswith("PASS")


def test_nd_json(capsys):
    code, out, _ = run_cli(capsys, ["nd", "--example", "threelines", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["ratio"] == "-2/3"
    assert data["is_candidate"] is True and data["is_pole"] is True


def test_smc_builtin_roots(capsys):
    code, out, _ = run_cli(capsys, ["smc", "--example", "veys"])
    assert code == 0
    assert "all 5 poles lie in the supplied root set" in out
    assert out.rstrip().endswith("PASS")


def test_smc_deficient_roots(capsys, tmp_path):
    p = tmp_path / "roots.json"
    p.write_text(json.dumps({"roots": ["-1", "-1/2", "-2/3", "-1/4"]}))
    code, out, _ = run_cli(capsys, ["smc", "--example", "veys", "--broots", str(p)])
    assert code == 1
    assert "pole -2/7 is not among the supplied roots" in out
    assert out.rstrip().endswith("FAIL")


def test_smc_needs_roots(capsys):
    code, _, err = run_cli(capsys, ["smc", "--example", "threelines"])
    assert code == 2
    assert "--broots" in err


# ---------------------------------------------------------------------------
# multivariate commands

def test_multi_nd(capsys, factored_file):
    code, out, _ = run_cli(capsys, ["multi-nd", factored_file])
    assert code == 0
    assert "distinguished hyperplane s1 + 2*s2 + 2" in out
    assert "candidate pole: yes" in out
    assert "component of the polar locus: yes" in out


def test_multi_smc(capsys, factored_file, tmp_path):
    locus = tmp_path / "locus.json"
    locus.write_text(json.dumps({"zero_locus": [[1, 2, 2], [1, 0, 1], [0, 1, 1]]}))
    code, out, _ = run_cli(capsys, ["multi-smc", factored_file,
                                    "--zero-locus", str(locus)])
    assert code == 0
    assert out.rstrip().endswith("PASS")

    short = tmp_path / "short.json"
    short.write_text(json.dumps({"zero_locus": [[1, 0, 1], [0, 1, 1]]}))
    code, out, _ = run_cli(capsys, ["multi-smc", factored_file,
                                    "--zero-locus", str(short)])
    assert code == 1
    assert "polar component s1 + 2*s2 + 2 is not in the zero locus" in out


@pytest.mark.parametrize("locus", [[[1, 1], [1, 1]],
                                   [[1, 2, 2, 0], [1, 0, 1, 0], [0, 1, 1, 0]]],
                         ids=["short-rows", "long-rows"])
def test_multi_smc_row_length_is_bad_input(capsys, factored_file, tmp_path, locus):
    p = tmp_path / "locus.json"
    p.write_text(json.dumps({"zero_locus": locus}))
    code, out, err = run_cli(capsys, ["multi-smc", factored_file, "--zero-locus", str(p)])
    assert code == 2 and not out
    assert "expected 3" in err


def test_multi_smc_needs_locus(capsys, factored_file, tmp_path):
    code, _, err = run_cli(capsys, ["multi-smc", factored_file])
    assert code == 2
    assert "--zero-locus" in err
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(["not", "a", "dict"]))
    code, _, err = run_cli(capsys, ["multi-smc", factored_file, "--zero-locus", str(bad)])
    assert code == 2


@pytest.mark.parametrize("locus", [[5], [[1.5, 0, 1], [0, 1, 1], [1, 2, 2]]],
                         ids=["int-item", "float-entry"])
def test_mistyped_zero_locus(capsys, factored_file, tmp_path, locus):
    # a float coefficient is not truncated into a passing locus
    p = tmp_path / "locus.json"
    p.write_text(json.dumps({"zero_locus": locus}))
    code, out, err = run_cli(capsys, ["multi-smc", factored_file, "--zero-locus", str(p)])
    assert code == 2 and not out
    assert '"zero_locus" list of lists of integers' in err


# ---------------------------------------------------------------------------
# vmono demo and packaging

def test_vmono_demo(capsys):
    code, out, _ = run_cli(capsys, ["vmono-demo"])
    assert code == 0
    assert "generator exponents at (0, 0): (-1, 0)" in out
    assert "generator exponents at (1/2, 1/2): (0, 1)" in out
    assert "(m,n,k)=(0,0,1) at alpha=(1/2, 1/2): member, s-eigenvalue -1" in out
    assert "(m,n,k)=(0,0,1) at alpha=(1, 1): not a member, s-eigenvalue -1" in out
    assert "annihilator levels for V(1/2,1/2) over V(3/2,3/2): [1, 2]" in out
    assert "extended wall normals: [[0, 1], [1, 0], [1, 1]]" in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "arrzeta.cli", "analyze", "--example", "threelines"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "log canonical threshold: 2/3" in proc.stdout


def test_console_script_installed():
    assert shutil.which("arrzeta") is not None
