"""Command-line interface: formats, determinism, exit codes."""

import hashlib
import json
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


def test_gen_manifest(tmp_path, capsys):
    code, out = run_cli(capsys, "gen", "--max-size", "4", "--out", str(tmp_path / "cat"))
    assert code == 0
    assert json.loads(out)["counts"] == {"1": 1, "2": 2, "3": 5, "4": 16}


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
    ["family\n1\n", "family n=x\n1\n", "family n=3\n1\nfamily n=4\n4\n"],
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
    ["poset n=x\n", "poset n=100000000000000000000\n0 < 1\n"],
    ids=["non-decimal", "10**20"],
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
    "params",
    [
        ["antichain", "100000000000000000000"],
        ["chain", "100000000000000000000"],
        ["downtree", "2", "200"],
        ["multilevel", "1", "100000000000000000000"],
        ["chain", "4097"],
    ],
    ids=["antichain", "chain", "downtree", "multilevel", "chain-4097"],
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
    # universal_tree(k) would exceed the size cap
    for params, k, message in [
        (["diamond"], [], "classification needs a tree poset"),
        (["chain", "3"], ["--k", "2"], "pattern larger than the universal tree order"),
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
def test_a_host_deeper_than_the_stack_is_a_usage_error(tmp_path, capsys, command):
    # The forcing search recurses once per host element. A 1,100-element
    # chain refutes the 2-antichain only at full depth; for `minimal` a
    # second element beside element 1 gives the host the copy of the
    # pattern that the search needs before it runs. A 900-element chain
    # still decides.
    pattern = str(tmp_path / "a2.poset")
    run_cli(capsys, "construct", "antichain", "2", "-o", pattern)
    covers = [f"{x} < {x + 1}" for x in range(1099)]
    if command == "minimal":
        covers += ["0 < 1100", "1100 < 2"]
    n = 1100 + (command == "minimal")
    host = tmp_path / "deep.poset"
    host.write_text(f"poset n={n}\n" + "\n".join(covers) + "\n")
    code = main([command, str(host), pattern])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: a {n}-element host is too deep for the forcing search\n"
    chain900 = str(tmp_path / "c900.poset")
    run_cli(capsys, "construct", "chain", "900", "-o", chain900)
    code, out = run_cli(capsys, command, chain900, pattern)
    assert code == 0 and json.loads(out)[command] is False


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
