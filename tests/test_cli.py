"""Command-line interface: formats, determinism, exit codes."""

import hashlib
import json
import math
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rainbowposet import (
    BadParams,
    are_isomorphic,
    catalog_upto,
    chain,
    harp,
    max_mass_pattern_free_with_extremes,
    organ,
    poset_from_text,
    sigma,
)
from rainbowposet.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_construct_round_trip(tmp_path, capsys):
    path = tmp_path / "o3.poset"
    code, _ = run_cli(capsys, "construct", "organ", "3", "-o", str(path))
    assert code == 0
    assert are_isomorphic(poset_from_text(path.read_text()), organ(3))


def test_construct_to_stdout(capsys):
    code, out = run_cli(capsys, "construct", "harp", "2")
    assert code == 0
    assert are_isomorphic(poset_from_text(out), harp(2))


def test_forces_json_and_determinism(tmp_path, capsys):
    host = tmp_path / "h.poset"
    patt = tmp_path / "p.poset"
    run_cli(capsys, "construct", "harp", "2", "-o", str(host))
    run_cli(capsys, "construct", "diamond", "-o", str(patt))
    code, out1 = run_cli(capsys, "forces", str(host), str(patt))
    assert code == 0
    payload = json.loads(out1)
    assert payload == {"schema": 1, "forces": True}
    _, out2 = run_cli(capsys, "forces", str(host), str(patt))
    assert out1 == out2  # byte-identical for identical configuration


def test_refutation_emitted(tmp_path, capsys):
    host = tmp_path / "a2.poset"
    run_cli(capsys, "construct", "antichain", "2", "-o", str(host))
    code, out = run_cli(capsys, "forces", str(host), str(host))
    assert code == 0
    payload = json.loads(out)
    assert payload["forces"] is False
    assert payload["refutation"] == [0, 0]


def test_search_m_and_m_value(tmp_path, capsys):
    patt = tmp_path / "a2.poset"
    run_cli(capsys, "construct", "antichain", "2", "-o", str(patt))
    code, out = run_cli(capsys, "search-m", str(patt), "--max-size", "6")
    assert code == 0
    assert json.loads(out)["count"] == 1
    code, out = run_cli(capsys, "m-value", str(patt))
    assert code == 0
    assert json.loads(out)["value"] == 3


def test_sigma_and_usage_error(capsys):
    code, out = run_cli(capsys, "sigma", "4", "1")
    assert code == 0 and json.loads(out)["value"] == 6
    code, _ = run_cli(capsys, "sigma", "4", "9")
    assert code == 2


def test_unexpected_exception_is_an_internal_error(monkeypatch, capsys):
    import rainbowposet.cli as cli

    def broken(args):
        raise KeyError("no such entry")

    monkeypatch.setattr(cli, "cmd_sigma", broken)
    assert main(["sigma", "4", "1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal: KeyError: 'no such entry'\n"


def test_a_value_error_from_a_bug_is_an_internal_error(monkeypatch, capsys):
    import rainbowposet.cli as cli

    def broken(args):
        raise ValueError("no such value")

    monkeypatch.setattr(cli, "cmd_sigma", broken)
    assert main(["sigma", "4", "1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal: ValueError: no such value\n"


@pytest.mark.parametrize(
    "argv, content, message",
    [
        (["construct", "chain", "abc"], None, "construct parameter 'abc' is not an integer"),
        (["construct", "blowup", "{f}", "0,x"], "poset n=2\n", "construct parameter 'x' is not"),
        (["forces", "{f}", "{f}"], b"\xff\xfe", "input.txt: not UTF-8 text (byte 0"),
        (["lubell", "{f}"], b"poset\n\xff", "input.txt: not UTF-8 text (byte 6"),
        (["forces", "{f}", "{f}"], "poset n=" + "9" * 5000, "poset header n= has 5000 digits"),
        (["lubell", "{f}"], "family n=" + "9" * 5000, "family header n= has 5000 digits"),
        (["forces", "{f}", "{f}"], "poset n=1\n# label " + "9" * 5000 + " a", "line 2: label"),
        # integer arguments take ASCII digits and a leading minus, as the
        # text formats read a number
        (["construct", "chain", "1_0"], None, "construct parameter '1_0' is not an integer"),
        (["construct", "chain", "\u0663"], None, "construct parameter '\u0663' is not"),
        (["construct", "chain", "+3"], None, "construct parameter '+3' is not"),
        (["sigma", "\u0663", "1"], None, "argument n '\u0663' is not an integer"),
        (["sigma", "4", "1_0"], None, "argument k '1_0' is not an integer"),
        (["sigma", "-", "1"], None, "argument n '-' is not an integer"),
        (["sigma", "9" * 5000, "1"], None, "argument n has 5000 digits"),
        # a minus and a digit start a value, not an option
        (["sigma", "-1_0", "1"], None, "argument n '-1_0' is not an integer"),
        (["construct", "chain", "-1_0"], None, "construct parameter '-1_0' is not an integer"),
        (["sigma", "9" * 20, "1"], None, "ground set size n=" + "9" * 20 + " is too large"),
        # the sum would have more digits than an int may print
        (["sigma", "20000", "1"], None, "ground set size n=20000 is too large"),
        (["sigma", str(2**64 - 1), "1"], None, f"ground set size n={2**64 - 1} is too large"),
        (["sigma", "9" * 400, "1"], None, "ground set size n=" + "9" * 400 + " is too large"),
        (["gen", "--max-size", "\u0663", "--out", "{f}"], None, "option --max-size '\u0663'"),
        (["m-value", "{f}", "--cap", "1_0"], "poset n=1\n", "option --cap '1_0' is not"),
        (["embed", "--tree", "{f}", "--seed", "1_0"], "poset n=1\n", "option --seed '1_0'"),
    ],
    ids=[
        "construct",
        "blowup",
        "not-utf8",
        "not-utf8-family",
        "poset-n",
        "family-n",
        "label",
        "construct-underscore",
        "construct-arabic-indic",
        "construct-plus",
        "sigma-arabic-indic",
        "sigma-underscore",
        "sigma-bare-minus",
        "sigma-digits",
        "sigma-minus-underscore",
        "construct-minus-underscore",
        "sigma-too-large",
        "sigma-too-long",
        "sigma-too-long-2**64-1",
        "sigma-too-long-for-a-float",
        "gen-max-size",
        "m-value-cap",
        "embed-seed",
    ],
)
def test_a_value_error_of_user_input_is_a_usage_error(tmp_path, capsys, argv, content, message):
    path = tmp_path / "input.txt"
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)
    code = main([a.format(f=path) for a in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0], lines


def test_a_negative_seed_is_an_integer(tmp_path, capsys):
    from rainbowposet.cli import build_parser

    tree = tmp_path / "vee.poset"
    run_cli(capsys, "construct", "vee", "-o", str(tree))
    args = build_parser().parse_args(["embed", "--tree", str(tree), "--seed", "-1"])
    assert args.seed == -1
    code, out = run_cli(capsys, "embed", "--tree", str(tree), "--seed", "-1")
    assert code == 0 and out.endswith("verified: true\n")


def test_sigma_takes_every_ground_set_math_comb_takes(capsys):
    # every sum with k >= 1 holds C(n, n // 2), and math.comb refuses it
    # from n = 2**64 on; an empty sum computes no coefficient
    with pytest.raises(OverflowError):
        math.comb(2**64, 2**63)
    for n in (2**64, 2**64 + 1, 10**20):
        with pytest.raises(BadParams, match=f"n={n} is too large"):
            sigma(n, 1)
        assert main(["sigma", str(n), "1"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and f"n={n}" in lines[0]
        assert sigma(n, 0) == 0
    assert run_cli(capsys, "sigma", str(10**20), "0") == (0, '{"schema": 1, "value": 0}\n')
    assert sigma(2**64 - 1, 0) == 0 and sigma(5, 2) == 20


def test_sigma_prints_every_sum_an_int_may_print(capsys):
    # 2**n / (n + 1) <= C(n, n // 2) <= sigma(n, k) <= 2**n for k >= 1, so
    # under the default limit of 4,300 digits every such sum from n = 14,299
    # on is refused unseen, and the n below it once the sum is known
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        for argv, printed in [
            (("14000", "1"), True),
            (("14290", "1"), True),  # 4,300 digits
            (("14290", "14291"), False),  # 2**14290, 4,302 digits
            (("14299", "1"), False),
            (("20000", "0"), True),  # an empty sum
        ]:
            code = main(["sigma", *argv])
            out, err = capsys.readouterr()
            assert code == (0 if printed else 2), argv
            if printed:
                n, k = map(int, argv)
                assert json.loads(out)["value"] == sigma(n, k) and err == ""
            else:
                message = f"ground set size n={argv[0]} is too large: sigma has over 4300 digits"
                assert out == "" and err == f"error: {message}\n"
        sys.set_int_max_str_digits(0)  # no limit
        code, out = run_cli(capsys, "sigma", "20000", "1")
        assert code == 0 and json.loads(out)["value"] == math.comb(20000, 10000)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "argv, named",
    [
        (["sigma", "4"], "the following arguments are required: k"),
        (["sigma", "4", "1", "--bogus"], "unrecognized arguments: --bogus"),
        (["bogus"], "invalid choice: 'bogus'"),
        # argparse sets the unknown option aside and then finds k missing
        (["sigma", "--bogus", "1"], "unrecognized arguments: --bogus"),
        (["forces", "--budget", "5", "--nope", "a", "b"], "unrecognized arguments: --nope"),
        # known options, abbreviated or with a value attached, are not named
        (["--text", "sigma", "4"], "the following arguments are required: k"),
        (["forces", "--bud", "5", "a"], "the following arguments are required: pattern"),
        (["construct", "-ofile"], "the following arguments are required: name"),
    ],
    ids=[
        "missing-argument",
        "unknown-option",
        "bad-subcommand",
        "unknown-option-first",
        "unknown-option-between",
        "missing-k-after-option",
        "missing-argument-after-abbreviation",
        "missing-argument-after-short-option",
    ],
)
def test_argparse_usage_errors_are_one_line(capsys, argv, named):
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1, lines
    assert lines[0].startswith("error: rainbowposet") and named in lines[0]


def test_help_is_the_full_text(capsys):
    assert main(["sigma", "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: rainbowposet sigma [-h] n k\n") and captured.err == ""


def test_gen_manifest(tmp_path, capsys):
    code, out = run_cli(capsys, "gen", "--max-size", "4", "--out", str(tmp_path / "cat"))
    assert code == 0
    assert json.loads(out)["counts"] == {"1": 1, "2": 2, "3": 5, "4": 16}


# Imports the CLI in a fresh interpreter, prints the heavy standard modules
# it loaded, then runs `gen` (which needs hashlib) into the directory given.
_IMPORT_THEN_GEN = """
import sys
import rainbowposet.cli as cli
print(sorted(m for m in ("dataclasses", "inspect", "hashlib") if m in sys.modules))
sys.exit(cli.main(["gen", "--max-size", "3", "--out", sys.argv[1]]))
"""

# sha256 over the sorted names and texts of the files `gen --max-size 3`
# writes: the file names are canonical-key hashes
_GEN3_DIGEST = "3f73d75f69135257d543895c5fb905617f12c57a26ab6480961e7b2b5187e999"


def test_import_loads_no_heavy_modules_and_gen_still_writes_the_catalog(tmp_path, src_env):
    out = tmp_path / "cat"
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_THEN_GEN, str(out)],
        capture_output=True, text=True, env=src_env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded, payload = proc.stdout.splitlines()
    assert loaded == "[]"
    assert json.loads(payload)["counts"] == {"1": 1, "2": 2, "3": 5}
    names = sorted(path.name for path in out.iterdir())
    assert names[0] == "manifest.json" and len(names) == 9
    blob = "".join(name + "\n" + (out / name).read_text() for name in names)
    assert hashlib.sha256(blob.encode()).hexdigest() == _GEN3_DIGEST


def test_check_result_is_an_immutable_record():
    from rainbowposet import verify

    r = verify.CheckResult("alpha", True, "fine", 0.1)
    assert r == verify.CheckResult(name="alpha", passed=True, detail="fine", seconds=0.1)
    assert repr(r) == "CheckResult(name='alpha', passed=True, detail='fine', seconds=0.1)"
    with pytest.raises(AttributeError):
        r.passed = False


def test_embed_reports_verified(tmp_path, capsys):
    tree = tmp_path / "c2.poset"
    run_cli(capsys, "construct", "chain", "2", "-o", str(tree))
    code, out = run_cli(capsys, "embed", "--tree", str(tree), "--k", "2", "--seed", "1")
    assert code == 0
    assert "verified: true" in out
    code, out = run_cli(
        capsys, "embed", "--tree", str(tree), "--k", "2", "--exhaustive"
    )
    assert code == 0
    assert "all 203 proper colorings" in out


def test_family_commands(tmp_path, capsys):
    fam = tmp_path / "f.family"
    fam.write_text("family n=3\n{}\n1\n1,2\n")
    code, out = run_cli(capsys, "lubell", str(fam))
    assert code == 0 and json.loads(out)["value"] == "5/3"
    code, out = run_cli(capsys, "minmax", str(fam))
    assert code == 0 and json.loads(out)["identity_holds"] is True


@pytest.mark.parametrize(
    "text",
    [
        "family\n1\n",
        "family n=x\n1\n",
        "family n=3\n1\nfamily n=4\n4\n",
        "family n=2 n=3\n3\n",
    ],
)
def test_bad_family_header_is_a_usage_error(tmp_path, capsys, text):
    fam = tmp_path / "bad.family"
    fam.write_text(text)
    code = main(["lubell", str(fam)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "text",
    [
        "poset n=x\n",
        "poset n=100000000000000000000\n0 < 1\n",
        "poset n=2 n=3\n",
        "poset n=3 n=2\n0 < 2\n",
        "poset n=\u0663\n",
        "poset n=1_0\n",
        "poset n=+3\n",
    ],
    ids=[
        "non-decimal", "10**20", "repeated-n", "repeated-n-then-cover",
        "arabic-indic-digit", "underscore", "sign",
    ],
)
def test_bad_poset_header_is_a_usage_error(tmp_path, capsys, text):
    bad = tmp_path / "bad.poset"
    bad.write_text(text)
    code = main(["forces", str(bad), str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: poset header n=")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (["forces", "{f}", "{f}"], "posetry n=2\n0 < 1\n", "poset text line 1: 'posetry n=2'"),
        (["forces", "{f}", "{f}"], "poset n=3\n0 < 1 < 2\n", "poset text line 2: '0 < 1 < 2'"),
        (["lubell", "{f}"], "families n=2\n1\n", "family text line 1: 'families n=2'"),
        (["lubell", "{f}"], "family n=2\n1,x\n", "family text line 2: '1,x'"),
        (["forces", "{f}", "{f}"], "poset n=12\n1_0 < 1_1\n", "poset text line 2: '1_0 < 1_1'"),
        (["forces", "{f}", "{f}"], "poset n=3\n\u0661 < \u0662\n",
         "poset text line 2: '\u0661 < \u0662'"),
        (["forces", "{f}", "{f}"], "poset n=2\n-1 < 0\n", "poset text line 2: '-1 < 0'"),
        (["lubell", "{f}"], "family n=3\n\u0661,\u0662\n", "family text line 2: '\u0661,\u0662'"),
        (["lubell", "{f}"], "family n=12\n1_0\n", "family text line 2: '1_0'"),
    ],
    ids=[
        "posetry-header", "two-covers", "families-header", "non-integer-element",
        "underscore-cover", "arabic-indic-cover", "negative-cover", "arabic-indic-set",
        "underscore-set",
    ],
)
def test_a_malformed_line_is_named_with_its_format_and_number(
    tmp_path, capsys, argv, text, message
):
    # a header is a line whose first word is exactly `poset` or `family`;
    # any other line is a body line, and one that does not parse is named
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code = main([a.format(f=path) for a in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    shape = "is not a cover 'a < b'" if argv[0] == "forces" else "is not a set '1,2,...' or '{}'"
    assert captured.err == f"error: {message} {shape}\n"


@pytest.mark.parametrize(
    "params",
    [
        ["antichain", "100000000000000000000"],
        ["chain", "100000000000000000000"],
        ["downtree", "2", "200"],
        ["multilevel", "1", "100000000000000000000"],
        ["chain", "4097"],
        ["harp", "90"],
    ],
    ids=["antichain", "chain", "downtree", "multilevel", "chain-4097", "harp-90"],
)
def test_oversized_construction_is_a_usage_error(capsys, params):
    code = main(["construct", *params])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "exceeds the cap" in lines[0]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "params, message",
    [
        (["harp", "0"], "harp needs k >= 1"),
        (["harp", "100"], "harp(100) exceeds the cap of 4096 elements"),
        (["uptree", "2", "0"], "uptree needs k, h >= 1"),
        (["uptree", "2", "200"], "uptree(2, 200) exceeds the cap of 4096 elements"),
        (["downtree", "0", "2"], "downtree needs k, h >= 1"),
    ],
    ids=["harp-0", "harp-100", "uptree-0", "uptree-200", "downtree-0"],
)
def test_construction_errors_name_the_construction(capsys, params, message):
    assert main(["construct", *params]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "params",
    [["chain"], ["nosuch"], ["universal-tree"], ["blowup", "{poset}"]],
    ids=["missing-param", "unknown-name", "universal-tree", "blowup"],
)
def test_bad_construct_params_are_a_usage_error(tmp_path, capsys, params):
    base = tmp_path / "base.poset"
    run_cli(capsys, "construct", "vee", "-o", str(base))
    code = main(["construct", *(p.format(poset=base) for p in params)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in captured.err


def test_module_entry_point(src_env):
    proc = subprocess.run(
        [sys.executable, "-m", "rainbowposet", "sigma", "4", "2"],
        capture_output=True,
        text=True,
        env=src_env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"schema": 1, "value": 10}


def test_lar_star(tmp_path, capsys):
    patt = tmp_path / "a2.poset"
    run_cli(capsys, "construct", "antichain", "2", "-o", str(patt))
    code, out = run_cli(capsys, "lar-star", "3", str(patt))
    assert code == 0
    assert json.loads(out)["value"] == 5


def test_empty_pattern(tmp_path, capsys):
    empty = tmp_path / "e.poset"
    empty.write_text("poset n=0\n")
    code, out = run_cli(capsys, "forces", str(empty), str(empty))
    assert code == 0 and json.loads(out) == {"schema": 1, "forces": True}
    code, out = run_cli(capsys, "minimal", str(empty), str(empty))
    assert code == 0 and json.loads(out) == {"schema": 1, "minimal": True}
    for argv in (
        ["la-star", "2", "--pattern", str(empty)],
        ["lar-star", "3", str(empty)],
        ["m-value", str(empty)],
        ["search-m", str(empty), "--max-size", "3"],
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 2 and out == ""


def test_negative_ground_set_is_a_usage_error(tmp_path, capsys):
    patt = tmp_path / "chain2.poset"
    run_cli(capsys, "construct", "chain", "2", "-o", str(patt))
    for argv, named in (
        (["la-star", "-1", "--pattern", str(patt)], "n=-1"),
        (["la-star", "-1", "--bracket", "--pattern", str(patt)], "n=-1"),
        (["lar-star", "-1", str(patt)], "n=-1"),
        (["sigma", "-1", "0"], "n=-1"),
        (
            ["la-star", "5", "--bracket", "--node-budget", "-1", "--pattern"]
            + [str(patt)],
            "node_budget=-1",
        ),
        # a node budget without --bracket is refused, whatever its value
        (["la-star", "3", "--node-budget", "-5", "--pattern", str(patt)], "--bracket"),
        (["la-star", "3", "--node-budget", "300", "--pattern", str(patt)], "--bracket"),
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert named in lines[0], lines
    with pytest.raises(BadParams, match="n=-1"):
        max_mass_pattern_free_with_extremes(-1, chain(2))


def test_a_catalog_past_the_ceiling_is_a_usage_error(tmp_path, capsys):
    out_dir = tmp_path / "catalog"
    code = main(["gen", "--max-size", "10", "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert "max_n=10 is above the ceiling 9" in lines[0], lines
    assert not list(out_dir.glob("*.poset"))


def test_negative_size_is_a_usage_error(tmp_path, capsys):
    patt = str(tmp_path / "a2.poset")
    run_cli(capsys, "construct", "antichain", "2", "-o", patt)
    out_dir = tmp_path / "catalog"
    for argv, named in (
        (["gen", "--max-size", "-1", "--out", str(out_dir)], "max_n=-1"),
        (["search-m", patt, "--max-size", "-3"], "size_bound=-3"),
        (["m-value", patt, "--cap", "-1"], "cap=-1"),
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert named in lines[0], lines
    assert not out_dir.exists()
    with pytest.raises(BadParams, match="max_n=-1"):
        catalog_upto(-1)
    # zero is a valid size and keeps its output
    for argv, payload in (
        (["gen", "--max-size", "0", "--out", str(out_dir)], {"counts": {}}),
        (["search-m", patt, "--max-size", "0"], {"count": 0, "forcers": []}),
        (["m-value", patt, "--cap", "0"], {"lower": 2, "upper": 3, "exact": False}),
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 0, argv
        assert payload.items() <= json.loads(out).items(), out


@pytest.mark.parametrize(
    "command, budget, named",
    [
        (["forces", "{ojk}", "{a4}"], "-1", "budget_s=-1"),
        (["minimal", "{a2}", "{a2}"], "-5", "budget_s=-5"),
        (["forces", "{ojk}", "{a4}"], "nan", "budget_s=nan"),
        (["minimal", "{a2}", "{a4}"], "nan", "budget_s=nan"),
    ],
    ids=["forces-negative", "minimal-negative", "forces-nan", "minimal-no-search"],
)
def test_bad_budget_is_a_usage_error(tmp_path, capsys, command, budget, named):
    paths = {}
    for name, params in [
        ("ojk", ["ojk", "2", "4"]),
        ("a4", ["antichain", "4"]),
        ("a2", ["antichain", "2"]),
    ]:
        paths[name] = str(tmp_path / f"{name}.poset")
        run_cli(capsys, "construct", *params, "-o", paths[name])
    code = main([*(c.format(**paths) for c in command), "--budget", budget])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and named in lines[0]


def test_zero_budget_is_valid(tmp_path, capsys):
    path = str(tmp_path / "a2.poset")
    run_cli(capsys, "construct", "antichain", "2", "-o", path)
    code, out = run_cli(capsys, "forces", path, path, "--budget", "0")
    assert code == 0 and json.loads(out)["refutation"] == [0, 0]


def test_embed_checks_the_pattern_before_building_the_host(tmp_path, capsys):
    # a pattern that is no tree, or too large for k, is named even where
    # universal_tree(k) would exceed the size cap; k = 0 is an order too
    for params, k, message in [
        (["diamond"], [], "classification needs a tree poset"),
        (["chain", "3"], ["--k", "2"], "pattern larger than the universal tree order"),
        (["chain", "2"], ["--k", "0"], "pattern larger than the universal tree order"),
        (["chain", "2"], ["--k", "-1"], "pattern larger than the universal tree order"),
        (["chain", "4"], [], "universal_tree(4) exceeds the cap of 4096 elements"),
    ]:
        path = str(tmp_path / "pattern.poset")
        run_cli(capsys, "construct", *params, "-o", path)
        code = main(["embed", "--tree", path, *k])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", params
        assert captured.err == f"error: {message}\n"


def test_embed_exhaustive_is_limited_to_k_2(tmp_path, capsys, monkeypatch):
    # universal_tree(3) has 1,291 elements, too many to enumerate every
    # proper coloring; the option is refused before the host is built
    import rainbowposet.constructions as constructions

    path = str(tmp_path / "c2.poset")
    run_cli(capsys, "construct", "chain", "2", "-o", path)
    monkeypatch.setattr(constructions, "universal_tree", None)
    for k in (["--k", "3"], ["--k", "4"]):
        code = main(["embed", "--tree", path, *k, "--exhaustive"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: --exhaustive is limited to k <= 2, got k={k[1]}\n"


@pytest.mark.parametrize("command", ["forces", "minimal"])
def test_a_host_deeper_than_the_stack_decides(tmp_path, capsys, command):
    # The forcing search keeps one frame per colored element on a list, so
    # its depth is not bounded by the interpreter's stack. A 1,100-element
    # chain refutes the 2-antichain only at full depth; for `minimal` a
    # second element beside element 1 gives the host the copy of the
    # pattern that the search needs before it runs.
    assert sys.getrecursionlimit() < 1100
    pattern = str(tmp_path / "a2.poset")
    run_cli(capsys, "construct", "antichain", "2", "-o", pattern)
    covers = [f"{x} < {x + 1}" for x in range(1099)]
    if command == "minimal":
        covers += ["0 < 1100", "1100 < 2"]
    n = 1100 + (command == "minimal")
    host = tmp_path / "deep.poset"
    host.write_text(f"poset n={n}\n" + "\n".join(covers) + "\n")
    code, out = run_cli(capsys, command, str(host), pattern)
    payload = json.loads(out)
    assert code == 0 and payload[command] is False
    if command == "forces":
        assert payload["refutation"] == list(range(1100))


INPUT_TOKENS = [
    "poset n=0", "poset n=3", "poset n=5", "poset n=", "poset n=x", "poset n=-1",
    "poset n=5000", "poset", "0 < 1", "1 < 2", "2 < 0", "0 < 0", "4 < 7", "a < b",
    "<", "# label 0 a", "#", "family n=0", "family n=3", "family n=x", "family",
    "{}", "1", "1,2", "2,3", "0", "4", "1,,2", ",", "1,2,3", "", "  ",
]


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.lists(st.sampled_from(INPUT_TOKENS), max_size=6), st.sampled_from(["\n", " "]))
def test_text_inputs_exit_0_or_one_error_line(tmp_path, capsys, tokens, sep):
    # every text built from poset and family tokens is either read or
    # rejected with exit 2 and a single "error: " line
    path = tmp_path / "input.txt"
    path.write_text(sep.join(tokens) + "\n")
    f = str(path)
    for argv in (
        ["lubell", f],
        ["forces", f, f],
        ["minimal", f, f],
        ["search-m", f, "--max-size", "4"],
        ["m-value", f, "--cap", "5"],
        ["la-star", "2", "--pattern", f],
        ["lar-star", "2", f],
        ["minmax", f],
        ["embed", "--tree", f],
        ["construct", "blowup", f, "0,1,2"],
    ):
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 2), (argv[0], tokens, err)
        if code == 2:
            assert len(err.splitlines()) == 1 and err.startswith("error: "), err
            assert "Traceback" not in err


def _json_commands(capsys, monkeypatch, tmp_path):
    """Command lines that cover every JSON subcommand, run in tmp_path
    with their inputs written there; the --text lines come last."""
    monkeypatch.chdir(tmp_path)
    for name, params in [
        ("a2", ["antichain", "2"]),
        ("vee", ["vee"]),
        ("harp2", ["harp", "2"]),
        ("diamond", ["diamond"]),
    ]:
        run_cli(capsys, "construct", *params, "-o", f"{name}.poset")
    (tmp_path / "f.family").write_text("family n=3\n{}\n1\n1,2\n")
    return [
        ["gen", "--max-size", "4", "--out", "catalog"],
        ["forces", "harp2.poset", "diamond.poset"],
        ["forces", "a2.poset", "a2.poset"],
        ["minimal", "harp2.poset", "diamond.poset"],
        ["search-m", "vee.poset", "--max-size", "5"],
        ["m-value", "a2.poset"],
        ["lubell", "f.family"],
        ["sigma", "5", "2"],
        ["la-star", "3", "--pattern", "vee.poset"],
        ["la-star", "5", "--bracket", "--node-budget", "300", "--pattern", "a2.poset"],
        ["lar-star", "3", "a2.poset"],
        ["minmax", "f.family"],
        ["--text", "sigma", "5", "2"],
        ["--text", "forces", "a2.poset", "a2.poset"],
        ["--text", "la-star", "3", "--pattern", "vee.poset"],
    ]


# sha256 of the exit code and stdout of each command of _json_commands,
# computed before the JSON subcommands shared one output path and
# unchanged by it: the default output of all ten is pinned byte for byte.
CLI_DIGEST = "9463282e64bd343b43abd10e7c0d9caab4718969215c2f51e28d21aab54fdc6b"


def test_json_subcommand_bytes(tmp_path, monkeypatch, capsys):
    digest = hashlib.sha256()
    for argv in _json_commands(capsys, monkeypatch, tmp_path):
        code, out = run_cli(capsys, *argv)
        assert code == 0, argv
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == CLI_DIGEST


def test_timings_flag(tmp_path, monkeypatch, capsys):
    # every JSON subcommand carries an integer elapsed_ms under --timings,
    # and the rest of its payload is the payload of the plain run
    commands = _json_commands(capsys, monkeypatch, tmp_path)
    commands = [argv for argv in commands if argv[0] != "--text"]
    assert len({a[0] for a in commands}) == 10
    for argv in commands:
        _, plain = run_cli(capsys, *argv)
        code, out = run_cli(capsys, "--timings", *argv)
        timed = json.loads(out)
        elapsed = timed.pop("elapsed_ms")
        assert code == 0 and type(elapsed) is int and elapsed >= 0, argv
        assert timed == json.loads(plain), argv


def test_text_format(tmp_path, capsys):
    code, out = run_cli(capsys, "--text", "sigma", "5", "2")
    assert code == 0 and out == "value: 20\n"


def test_verify_report_lines(monkeypatch, capsys):
    from rainbowposet import verify

    def fake_suite(full=False):
        return [
            verify.CheckResult("alpha", True, "fine", 0.1),
            verify.CheckResult("beta", full, "depends on tier", 0.2),
        ]

    monkeypatch.setattr("rainbowposet.cli.run_suite", fake_suite)
    code, out = run_cli(capsys, "verify-paper", "--full")
    assert code == 0
    assert "PASS alpha" in out and "2/2 checks passed" in out
    code, out = run_cli(capsys, "verify-paper", "--quick")
    assert code == 1
    assert "FAIL beta" in out and "1/2 checks passed" in out


# Runs each argv through main() and prints one JSON line per command: its
# name, exit code and stdout.
_DRIVER = """
import contextlib, io, json, sys
from rainbowposet.cli import main
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    print(json.dumps([argv[0], code, out.getvalue()]))
"""

# sha256 of the driver lines of the embed commands below: the printed
# certificates pin where the universal-tree embedder puts every pattern
# element, so a change that moves one image shows here.
EMBED_DIGEST = "d6211f925d22661b66b0c9c7c5ae0b1b1ce0bdfd892ac9698e57e68d9111d4e1"


def test_subcommands_are_byte_identical_across_hash_seeds(tmp_path, capsys, src_env):
    files = {}
    for name, params in [
        ("chain2", ["chain", "2"]),
        ("vee", ["vee"]),
        ("wedge", ["wedge"]),
        ("harp2", ["harp", "2"]),
        ("diamond", ["diamond"]),
        ("a2", ["antichain", "2"]),
    ]:
        files[name] = str(tmp_path / f"{name}.poset")
        run_cli(capsys, "construct", *params, "-o", files[name])
    embeds = [
        ["embed", "--tree", files[tree], "--k", "3", "--seed", str(seed)]
        for tree in ("chain2", "vee", "wedge")
        for seed in range(5)
    ] + [["embed", "--tree", files["chain2"], "--k", "2", "--exhaustive"]]
    others = [
        ["forces", files["harp2"], files["diamond"]],
        ["minimal", files["harp2"], files["diamond"]],
        ["la-star", "3", "--pattern", files["vee"]],
        ["lar-star", "3", files["a2"]],
        ["m-value", files["vee"]],
        ["search-m", files["vee"], "--max-size", "5"],
    ]
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _DRIVER, json.dumps(embeds + others)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**src_env, "PYTHONHASHSEED": hashseed},
        )
        for hashseed in ("1", "2")
    ]
    outputs = []
    try:
        for proc in procs:
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err.decode()
            outputs.append(out)
    finally:
        for proc in procs:
            proc.kill()
    assert outputs[0] == outputs[1]
    lines = outputs[0].splitlines(keepends=True)
    assert len(lines) == len(embeds) + len(others)
    assert all(json.loads(line)[1] == 0 for line in lines)
    embed_bytes = b"".join(lines[: len(embeds)])
    assert hashlib.sha256(embed_bytes).hexdigest() == EMBED_DIGEST
