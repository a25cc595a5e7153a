"""Command line behavior: exit codes, config handling, document shape."""

import argparse
import contextlib
import gc
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import bapkit
from bapkit import (
    BasisSpaceElement,
    CertificateFailureError,
    ConstructionSoundnessError,
    FloorCertificate,
    KoetheSeminorms,
    MaxPrefixSeminorms,
    RhoTable,
    SeminormSystem,
    SingleBox,
    SupPartialSumSeminorms,
    VogtSeminorms,
)
from bapkit import cli
from bapkit import embedding
from bapkit import jsonio
from bapkit.scalars import raw_of
from test_jsonio import replace


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


def test_a_rational_schedule_build_skips_the_arithmetic_whose_result_it_knows(monkeypatch):
    # the rational Pelczynski suite at dimension 10, seed 0: the last prefix of a block is
    # e, zero entries are not eliminated, sums start from their first term and a - a is not
    # computed.  The checks read the levels raw and compare them as integers, so only the
    # reconstruction traces, which the document holds, turn reads into Fractions: 8 samples
    # of 11 partial sums each.  The run makes 9,500 Fractions and 928 order comparisons of
    # them; a Fraction per level of every read made 16,397 and 6,103, and slots stored as
    # d columns, each applied to every embedded vector, 9,682
    counts = dict.fromkeys(
        ("division", "addition", "subtraction", "read", "scalars", "fraction", "order"), 0
    )

    def counted(method, kind):
        def counting(*args, **kwargs):
            counts[kind] += 1
            return method(*args, **kwargs)
        return counting

    for kind, names in (
        ("division", ("__truediv__", "__rtruediv__")),
        ("addition", ("__add__", "__radd__")),
        ("subtraction", ("__sub__", "__rsub__")),
        ("order", ("__lt__", "__le__", "__gt__", "__ge__")),
    ):
        for name in names:
            monkeypatch.setattr(Fraction, name, counted(getattr(Fraction, name), kind))
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted(Fraction.__new__, "fraction")))
    monkeypatch.setattr(SeminormSystem, "raw_values", counted(SeminormSystem.raw_values, "read"))
    monkeypatch.setattr(SeminormSystem, "values", counted(SeminormSystem.values, "scalars"))
    cfg = cli.load_config(None, namespace(suite="pelczynski", mode="rational", seed=0))
    cfg["pelczynski"]["dimension"] = 10
    passed, _ = cli.run_suite_pelczynski(cfg)
    assert passed
    assert counts["division"] <= 518 and counts["addition"] <= 100
    assert counts["subtraction"] == 0 and counts["read"] == 718
    assert counts["scalars"] == 8 * 11
    assert counts["fraction"] <= 10_000 and counts["order"] <= 1_000


def traced_peak(run):
    """The peak of the memory that tracemalloc traces while run runs, above what it traced
    before."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_the_normability_suite_holds_one_family_at_a_time(mode):
    # the families are drawn as dv_condition_check reads them, so the suite's peak does not
    # grow with their count; holding all 500 at once peaked 2.9 MiB (float) and 3.3 MiB
    # (rational) above 50 of them.  Two untraced runs first fill the interpreter's free
    # lists (up to 2000 tuples of each length), which are bounded but traced while they fill:
    # after one run the rational suite still grew by about 270 KiB, after two by under 50
    configs = {}
    for families in (50, 500):
        configs[families] = cli.load_config(None, namespace(suite="normability", mode=mode))
        configs[families]["normability"] = {"dimension": 12, "families": families}
    # a full collection empties the free lists, so none may run between the runs
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(2):
            cli.run_suite_normability(configs[500])
        peaks = {n: traced_peak(lambda: cli.run_suite_normability(cfg)) for n, cfg in configs.items()}
    finally:
        if collecting:
            gc.enable()
    assert peaks[500] - peaks[50] < 256 * 1024, peaks


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
        # the Vogt sizes are bounded by the 12 x 6 x 8 box and 12 levels
        ({"vogt": {"n_max": 13, "mu_max": 6, "nu_max": 8}}, "the vogt box has 624 coordinates"),
        ({"vogt": {"level_count": 13}}, "vogt.level_count must be at most 12"),
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
        (
            _table(values=[[1, 1, {"num": 1, "den": 2}], [1, 1, {"num": 1, "den": 3}]]),
            "rho table repeats a (mu, nu) entry",
        ),
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


@pytest.mark.parametrize("override", [None, {"normability": {"families": 3}}])
def test_a_loaded_config_shares_no_section_with_the_next_load(tmp_path, override):
    path = None
    if override is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(override))
        path = str(path)
    first = cli.load_config(path, namespace())
    for section in ("vogt", "pelczynski", "normability"):
        first[section]["mutated"] = True
    first["pelczynski"]["dimension"] = 12
    again = cli.load_config(path, namespace())
    assert again["pelczynski"]["dimension"] == 4
    assert not any("mutated" in again[section] for section in ("vogt", "pelczynski", "normability"))
    assert cli.load_config(None, namespace())["pelczynski"] == {"dimension": 4}


def test_decode_rho_accepts_dyadic_and_encoded_tables():
    assert cli._decode_rho("dyadic", "rational") == RhoTable.dyadic()
    table = RhoTable.from_grid({(1, 1): Fraction(1, 2), (2, 1): Fraction(1, 4)})
    assert cli._decode_rho(jsonio.encode(table), "rational") == table


# a dyadic rho record with a grid and a field that no record declares
UNDECLARED_RHO_FIELDS = {"vogt": {"rho": {"kind": "rho", "table_kind": "dyadic",
                                          "values": "not a table", "junk": [1, 2]}}}


def test_a_rho_record_with_undeclared_fields_exits_two(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(UNDECLARED_RHO_FIELDS))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "doc.json")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: vogt.rho does not decode: undeclared fields ['junk']")
    assert not (tmp_path / "doc.json").exists()


# a dyadic rho record whose grid is a string, not an array
STRING_RHO_VALUES = {"suite": "vogt", "vogt": {"rho": {"kind": "rho", "table_kind": "dyadic",
                                                        "values": ""}}}


def test_a_rho_record_with_a_string_for_a_sequence_exits_two(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(STRING_RHO_VALUES))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "doc.json")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: vogt.rho does not decode: expected a JSON array")
    assert not (tmp_path / "doc.json").exists()


# a float-mode decay table whose rows 2 and 3 are 1/10**400: positive, but 0.0 as floats
SUB_FLOAT_RHO = {"suite": "vogt", "mode": "float", "vogt": {"rho": {
    "kind": "rho", "table_kind": "table", "mu_limit": 3, "nu_limit": 4,
    "values": [[mu, nu, {"num": 1, "den": 2 if mu == 1 else 10**400}]
               for mu in range(1, 4) for nu in range(1, 5)],
}}}


def test_a_decay_entry_below_the_float_range_exits_two(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SUB_FLOAT_RHO))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "doc.json")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: vogt.rho entry (2,1) is below the normal float range")
    assert "Traceback" not in captured.err
    assert not (tmp_path / "doc.json").exists()
    # the same table is exact in rational mode
    assert cli.main(["run", "--config", str(path), "--mode", "rational"]) == 0
    # a normal float, however small, is accepted
    smallest = {**SUB_FLOAT_RHO["vogt"]["rho"], "values": [
        [mu, nu, {"num": 1, "den": 2 if mu == 1 else 2**1022}]
        for mu in range(1, 4) for nu in range(1, 5)
    ]}
    assert cli._decode_rho(smallest, "float").values[-1][2] == Fraction(1, 2**1022)
    with pytest.raises(cli.ConfigError, match="below the normal float range"):
        cli._decode_rho({**smallest, "values": [
            [mu, nu, {"num": 1, "den": 2 if mu == 1 else 2**1023}]
            for mu in range(1, 4) for nu in range(1, 5)
        ]}, "float")


def test_decode_rho_rejects_garbage():
    with pytest.raises(cli.ConfigError, match="does not decode"):
        cli._decode_rho({"kind": "rho"}, "rational")
    with pytest.raises(cli.ConfigError, match="decay table"):
        cli._decode_rho(jsonio.encode(SingleBox(3)), "rational")


def deep_list_config():
    depth = 200_000
    return '{"vogt": ' + "[" * depth + "]" * depth + "}"


def deep_rho_config():
    rho = {"kind": "koethe-system", "weights": [[1]], "box": {"kind": "single-box", "d": 1},
           "mode": "rational"}
    for _ in range(400):
        rho = {"kind": "sup-partial-system", "base": rho, "operators": []}
    return json.dumps({"vogt": {"rho": rho}})


@pytest.mark.parametrize(
    "text, fragment",
    [(deep_list_config, "nests too deeply to parse"), (deep_rho_config, "vogt.rho does not decode")],
    ids=["json", "rho"],
)
def test_deeply_nested_config_exits_two(tmp_path, capsys, text, fragment):
    # json.loads and the record decoder both recurse once per level
    path = tmp_path / "deep.json"
    path.write_text(text())
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "doc.json")]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.err.startswith("error:")
    assert fragment in captured.err


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


# per check: the class, the method it loses, and the broken method built from the original
BROKEN_CHECKS = {
    "pelczynski/reconstruction": (
        SeminormSystem, "values", lambda values: lambda self, levels, x: (Fraction(1),) * len(levels)
    ),
    "pelczynski/projection-idempotent": (
        BasisSpaceElement, "total", lambda total: lambda self: total(self).scale(2)
    ),
    "normability/sup-norm-upgrade": (
        SupPartialSumSeminorms, "values", lambda values: lambda self, levels, x: (0,) * len(levels)
    ),
    # each level loses its last functional, so its rank over the box is d - 1
    "vogt/norm-positivity": (
        VogtSeminorms,
        "level_groups",
        lambda groups: lambda self, k: tuple((c, fs[:-1]) for c, fs in groups(self, k)),
    ),
    # nuclearity p reads level p + 1's functionals; level 1's, still of full rank, have
    # weight base 1 and threshold 1, so their terms are p**s, not (p/(p+1))**s
    "vogt/nuclearity-level-1": (
        VogtSeminorms,
        "level_groups",
        lambda groups: lambda self, k: groups(self, 1 if k == 2 else k),
    ),
    "vogt/nuclearity-level-2": (
        VogtSeminorms,
        "level_groups",
        lambda groups: lambda self, k: groups(self, 1 if k == 3 else k),
    ),
}


@pytest.mark.parametrize("check", sorted(BROKEN_CHECKS))
def test_each_check_can_fail_on_its_own(monkeypatch, check):
    assert_fails_on_its_own(monkeypatch, check, mode=None)


@pytest.mark.parametrize("check", sorted(BROKEN_CHECKS))
def test_each_check_can_fail_on_its_own_in_float_mode(monkeypatch, check):
    assert_fails_on_its_own(monkeypatch, check, mode="float")


def assert_fails_on_its_own(monkeypatch, check, mode):
    suite = check.split("/")[0]
    run_suite = getattr(cli, f"run_suite_{suite}")
    cfg = cli.load_config(None, namespace(suite=suite, mode=mode))

    def failing():
        _, checks = run_suite(cfg)
        return {f"{suite}/{name}" for name, result in checks.items() if not result["passed"]}

    assert failing() == set()
    owner, name, broken = BROKEN_CHECKS[check]
    monkeypatch.setattr(owner, name, broken(getattr(owner, name)))
    assert failing() == {check}


def seeded_random_values(_values):
    rng = random.Random(0)
    return lambda self, levels, x: tuple(rng.randint(-9, 9) for _ in levels)


def seeded_random_raw_values(_raw_values):
    """seeded_random_values as raw reads: each integer over 1 in rational mode."""
    rng = random.Random(0)
    return lambda self, levels, x: tuple(raw_of(rng.randint(-9, 9), self.mode) for _ in levels)


# checks that write `passed: True` and fail by raising: the method a patch breaks, the
# patches, and the error type the suite documents for that failure
BROKEN_VALUES = {
    "doubled": lambda values: lambda self, levels, x: tuple(2 * v for v in values(self, levels, x)),
    "random": seeded_random_values,
}
def tenth_of_constant(comparison_level):
    def patched(*args, **kwargs):
        level, constant = comparison_level(*args, **kwargs)
        return level, constant / 10
    return patched


def doubled_floor(bap_failure_witness):
    def patched(*args, **kwargs):
        witness = bap_failure_witness(*args, **kwargs)
        floor = FloorCertificate(witness.floor.level, 2 * witness.floor.bound)
        return replace(witness, floor=floor)
    return patched


RAISING_CHECKS = {
    # doubling every value keeps the prefix bound's ratio, so "doubled" cannot fail it
    "pelczynski/schedule": (
        KoetheSeminorms, "raw_values", {"random": seeded_random_raw_values},
        ConstructionSoundnessError,
    ),
    # M_k / 10 passes the schedule and fails the certificate's upper bound
    "pelczynski/equicontinuity": (
        embedding, "comparison_level", {"tenth": tenth_of_constant}, CertificateFailureError
    ),
    "normability/clean-system-consistent": (
        MaxPrefixSeminorms, "values", BROKEN_VALUES, CertificateFailureError
    ),
    # the witness certifies its own floor, so only a floor it did not certify reaches this
    # check: twice the certified bound, which the suite's re-verification on the raw trace fails
    "vogt/injective-extension": (
        cli, "bap_failure_witness", {"false": doubled_floor}, CertificateFailureError,
    ),
    # both suites build the Vogt witness family, which checks its traces on construction
    "normability/witness-violation": (
        VogtSeminorms, "values", BROKEN_VALUES, CertificateFailureError
    ),
    "vogt/failure-witness": (
        VogtSeminorms, "values", BROKEN_VALUES, CertificateFailureError
    ),
}


@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize(
    "check, patch",
    [(check, patch) for check, row in sorted(RAISING_CHECKS.items()) for patch in sorted(row[2])],
)
def test_each_raising_check_can_fail(monkeypatch, capsys, mode, check, patch):
    suite = check.split("/")[0]
    run_suite = getattr(cli, f"run_suite_{suite}")
    cfg = cli.load_config(None, namespace(suite=suite, mode=mode))
    passed, checks = run_suite(cfg)
    assert passed and checks[check.split("/")[1]]["passed"]
    owner, name, patches, error = RAISING_CHECKS[check]
    monkeypatch.setattr(owner, name, patches[patch](getattr(owner, name)))
    with pytest.raises(error):
        run_suite(cfg)
    doc = cli.build_document(cfg)
    assert doc["passed"] is False
    assert doc["suites"][suite]["passed"] is False
    assert doc["suites"][suite]["checks"]["error"]["type"] == error.__name__
    assert cli.main(["run", "--suite", suite, "--mode", mode]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert json.loads(captured.out)["suites"][suite]["checks"]["error"]["type"] == error.__name__


# document checks whose rows are function-level tests, each with where it lives
FUNCTION_LEVEL_ROWS = {
    "vogt/comparison-inequality": "tests/test_vogt.py::test_each_comparison_inequality_can_fail",
    "pelczynski/basis-criterion": (
        "tests/test_embedding.py::"
        "test_basis_criterion_fails_when_the_values_break_the_triangle_inequality"
    ),
}


def test_every_document_check_has_a_row():
    doc = cli.build_document(cli.load_config(None, namespace(suite="all")))
    names = {
        f"{suite}/{name}" for suite, result in doc["suites"].items() for name in result["checks"]
    }
    rows = [BROKEN_CHECKS, RAISING_CHECKS, FUNCTION_LEVEL_ROWS]
    assert sorted(names - set().union(*rows)) == []
    assert sorted(set().union(*rows) - names) == []


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--suite", "everything"])
    assert exc.value.code == 2


def test_module_entry_point_runs():
    # the subprocess imports bapkit from wherever this process found it
    src = str(Path(bapkit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "bapkit", "explain"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "schedule-sandwich" in proc.stdout


@pytest.mark.parametrize("where", ["missing-dir/doc.json", "."])
def test_unwritable_out_path_exits_two_before_any_suite(tmp_path, monkeypatch, capsys, where):
    def never(cfg):
        raise AssertionError("build_document ran before the --out path was checked")

    monkeypatch.setattr(cli, "build_document", never)
    out_path = tmp_path / where
    assert cli.main(["run", "--suite", "vogt", "--out", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write --out")
    assert "Traceback" not in captured.err
    assert not (tmp_path / "missing-dir").exists()


def test_out_path_check_keeps_an_existing_file_until_the_run_ends(tmp_path, monkeypatch, capsys):
    out_path = tmp_path / "doc.json"
    out_path.write_text("previous run\n")
    seen = []

    def record(cfg):
        seen.append(out_path.read_text())
        return {"suites": {}, "passed": True}

    monkeypatch.setattr(cli, "build_document", record)
    assert cli.main(["run", "--suite", "vogt", "--out", str(out_path)]) == 0
    assert seen == ["previous run\n"]
    assert json.loads(out_path.read_text()) == {"passed": True, "suites": {}}


# ---------------------------------------------------------------------------
# generated configs: every one exits 0, 1 or 2, and none with a traceback

# sizes come from small sets, so that each config runs fast; the config bounds them
# above by the 12 x 6 x 8 box and 12 levels, which test_config_validation_bounds pins
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-1, 4)
    | st.sampled_from([0.5, -1.0, float("nan"), float("inf")])
    | st.sampled_from(["", "dyadic", "rational", "float", "all", "vogt", "rho"])
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["kind", "d", "num", "den", "x"]), inner, max_size=3),
    max_leaves=6,
)


def mostly(strategy, other=JSON_VALUES):
    """strategy in most draws, other in about one of five."""
    return st.integers(0, 4).flatmap(lambda i: other if i == 4 else strategy)


KOETHE = {"kind": "koethe-system", "weights": [[1, 1]], "box": {"kind": "single-box", "d": 2},
          "mode": "rational"}
OTHER_KINDS = [
    {"kind": "single-box", "d": 3},
    KOETHE,
    {"kind": "sup-partial-system", "base": KOETHE, "operators": []},
]


@st.composite
def rho_specs(draw):
    """dyadic, an encoded table, maybe broken in one field or cell, or another record."""
    mu_limit, nu_limit = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rho = st.sampled_from([{"num": 1, "den": 2}, {"num": 1, "den": 5}, 0.25, 1])
    spec = {
        "kind": "rho",
        "table_kind": "table",
        "values": [
            [mu, nu, draw(rho)] for mu in range(1, mu_limit + 1) for nu in range(1, nu_limit + 1)
        ],
        "mu_limit": mu_limit,
        "nu_limit": nu_limit,
    }
    how = draw(st.sampled_from(["table", "dyadic", "drop", "replace", "cell", "other kind"]))
    if how == "dyadic":
        return "dyadic"
    if how == "drop":
        del spec[draw(st.sampled_from(sorted(spec)))]
    elif how == "replace":
        spec[draw(st.sampled_from(sorted(spec)))] = draw(JSON_VALUES)
    elif how == "cell":
        cell = draw(st.sampled_from(spec["values"]))
        cell[draw(st.integers(0, 2))] = draw(st.sampled_from([2, 0, {"num": 1, "den": 0}]) | JSON_VALUES)
    elif how == "other kind":
        return draw(st.sampled_from(OTHER_KINDS))
    return spec


def section(fields, required=()):
    """A section with its required fields and any subset of the others, each mostly well
    typed, and rarely an unknown key."""
    fields = {key: mostly(strategy) for key, strategy in fields.items()}
    known = st.fixed_dictionaries(
        {key: fields.pop(key) for key in required}, optional=fields
    )
    unknown = mostly(st.just({}), st.fixed_dictionaries({"extra": JSON_VALUES}))
    return st.builds(lambda a, b: {**a, **b}, known, unknown)


VOGT_SIZES = st.integers(0, 6)
CONFIGS = mostly(section({
    "suite": st.sampled_from([*cli.SUITES, "all"]),
    "mode": st.sampled_from(["rational", "float"]),
    "seed": st.integers(-1, 3),
    "vogt": section({
        "rho": rho_specs(),
        "n_max": VOGT_SIZES,
        "mu_max": VOGT_SIZES,
        "nu_max": VOGT_SIZES,
        "level_count": VOGT_SIZES,
    }, required=["rho"]),
    "pelczynski": section({"dimension": st.integers(1, 4)}),
    "normability": section({"dimension": st.integers(1, 4), "families": st.integers(0, 5)}),
}, required=["vogt"]))


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(config=CONFIGS)
@example(config=UNDECLARED_RHO_FIELDS)
@example(config=STRING_RHO_VALUES)
@example(config=SUB_FLOAT_RHO)
def test_generated_configs_exit_zero_one_or_two_without_a_traceback(tmp_path, config):
    path, out = tmp_path / "cfg.json", tmp_path / "doc.json"
    path.write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(["run", "--config", str(path), "--out", str(out)])
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
