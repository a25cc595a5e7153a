"""Command line behavior: exit codes, config handling, document shape."""

import argparse
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from bapkit import RhoTable, SingleBox
from bapkit import cli
from bapkit import jsonio


def namespace(**kw):
    base = {"suite": None, "mode": None, "seed": None, "config": None}
    base.update(kw)
    return argparse.Namespace(**base)


def test_explain_lists_every_statement(capsys):
    assert cli.main(["explain"]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.strip()]
    # header, separator, then one row per statement
    assert len(lines) == 2 + len(cli._STATEMENTS)
    for name, _, location in cli._STATEMENTS:
        assert any(ln.startswith(name) and location in ln for ln in lines)


def test_run_all_suites_passes_and_writes_document(tmp_path, capsys):
    out_path = tmp_path / "doc.json"
    rc = cli.main(["run", "--suite", "all", "--out", str(out_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert f"overall: pass -> {out_path}" in out
    assert "vogt/failure-witness: pass" in out
    assert "pelczynski/schedule: pass" in out
    assert "normability/sup-norm-upgrade: pass" in out
    doc = json.loads(out_path.read_text())
    assert set(doc["suites"]) == set(cli.SUITES)
    assert doc["passed"] is True
    for suite in doc["suites"].values():
        assert suite["passed"] is True
        for check in suite["checks"].values():
            assert check["passed"] is True


def test_run_without_out_prints_the_document(capsys):
    rc = cli.main(["run", "--suite", "pelczynski"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["suites"]["pelczynski"]["passed"] is True


def test_document_deterministic_modulo_timestamp():
    cfg = cli.load_config(None, namespace(suite="vogt"))
    doc1 = cli.build_document(cfg)
    doc2 = cli.build_document(cfg)
    doc1.pop("generated_at")
    doc2.pop("generated_at")
    assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)


def test_invalid_json_config_reports_byte_position(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    rc = cli.main(["run", "--config", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:")
    assert "at byte" in err


def test_missing_config_file(tmp_path, capsys):
    rc = cli.main(["run", "--config", str(tmp_path / "absent.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "cannot read config" in err


def test_unknown_config_key(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"vogtt": {}}))
    rc = cli.main(["run", "--config", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "unknown config key" in err


def test_nested_key_must_be_an_object(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"vogt": 7}))
    assert cli.main(["run", "--config", str(path)]) == 2
    assert "must be an object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override, fragment",
    [
        ({"vogt": {"level_count": 2}}, "level_count"),
        ({"vogt": {"n_max": 3}}, "n_max"),
        ({"vogt": {"nu_max": 1}}, "nu_max"),
        ({"vogt": {"mu_max": 0}}, "mu_max"),
        ({"pelczynski": {"dimension": 13}}, "dimension"),
        ({"normability": {"families": 0}}, "families"),
        ({"mode": "decimal"}, "mode"),
        ({"seed": -1}, "seed"),
        ({"suite": "everything"}, "suite"),
    ],
)
def test_config_validation_bounds(tmp_path, capsys, override, fragment):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(override))
    rc = cli.main(["run", "--config", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert fragment in err


def _table(**fields):
    spec = {"kind": "rho", "table_kind": "table", "values": [[1, 1, 0.5]], "mu_limit": 1,
            "nu_limit": 1}
    return {"vogt": {"rho": {**spec, **fields}}}


@pytest.mark.parametrize(
    "override, fragment",
    [
        ({"seed": True}, "seed must be a nonnegative integer, got True"),
        ({"vogt": {"mu_max": True}}, "vogt.mu_max must be a positive integer, got True"),
        ({"vogt": {"n_max": True}}, "vogt.n_max must be a positive integer, got True"),
        ({"normability": {"families": True}}, "normability.families"),
        ({"vogt": {"rho": {"kind": "rho"}}}, "vogt.rho does not decode"),
        ({"vogt": {"rho": {"kind": "single-box", "d": 3}}}, "must decode to a decay table"),
        (_table(values=5), "vogt.rho does not decode"),
        (_table(values=[[1, 1]]), "vogt.rho does not decode"),
        (_table(values=[[1, 1, {"num": 1, "den": 0}]]), "vogt.rho does not decode"),
        (_table(values=[[1, 1, 2]]), "vogt.rho does not decode"),
        (_table(mu_limit="1"), "vogt.rho does not decode"),
    ],
)
def test_config_rejects_booleans_and_undecodable_tables(tmp_path, capsys, override, fragment):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(override))
    rc = cli.main(["run", "--config", str(path), "--suite", "vogt"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert fragment in captured.err


def test_cli_flags_override_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 5, "suite": "vogt", "mode": "float"}))
    cfg = cli.load_config(str(path), namespace(seed=9, mode="rational"))
    assert cfg["seed"] == 9
    assert cfg["mode"] == "rational"
    assert cfg["suite"] == "vogt"


def test_decode_rho_accepts_dyadic_and_encoded_tables():
    assert cli._decode_rho("dyadic") == RhoTable.dyadic()
    table = RhoTable.from_grid({(1, 1): Fraction(1, 2), (2, 1): Fraction(1, 4)})
    assert cli._decode_rho(jsonio.encode(table)) == table


def test_decode_rho_rejects_garbage():
    with pytest.raises(cli.ConfigError, match="does not decode"):
        cli._decode_rho({"kind": "rho"})
    with pytest.raises(cli.ConfigError, match="decay table"):
        cli._decode_rho(jsonio.encode(SingleBox(3)))


def test_slow_decay_table_fails_the_vogt_suite(tmp_path, capsys):
    # every entry 1/3 never reaches the 1/4 threshold inside mu_max rows,
    # so the witness construction refuses the box and the suite fails
    grid = {
        (mu, nu): Fraction(1, 3) for mu in range(1, 4) for nu in range(1, 5)
    }
    cfg = {"suite": "vogt", "vogt": {"rho": jsonio.encode(RhoTable.from_grid(grid))}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "doc.json"
    rc = cli.main(["run", "--config", str(cfg_path), "--out", str(out_path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "vogt/error: FAIL" in out
    assert f"overall: FAIL -> {out_path}" in out
    doc = json.loads(out_path.read_text())
    assert doc["passed"] is False
    assert doc["suites"]["vogt"]["checks"]["error"]["type"] == "BoxTooSmallError"


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--suite", "everything"])
    assert exc.value.code == 2


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "bapkit", "explain"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "schedule-sandwich" in proc.stdout
