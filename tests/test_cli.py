"""Command-line interface: formats, determinism, exit codes."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from rainbowposet import are_isomorphic, harp, organ, poset_from_text
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


def test_module_entry_point():
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "rainbowposet", "sigma", "4", "2"],
        capture_output=True,
        text=True,
        env=env,
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


def test_timings_flag(tmp_path, capsys):
    patt = tmp_path / "a2.poset"
    run_cli(capsys, "construct", "antichain", "2", "-o", str(patt))
    _, out = run_cli(capsys, "--timings", "forces", str(patt), str(patt))
    assert "elapsed_ms" in json.loads(out)


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
