"""Golden documents: `bapkit run` output pinned byte for byte.

Each case builds the document for suite `all` at the default config, drops
the `generated_at` stamp and compares the SHA-256 of its canonical text
with a constant recorded from a known-good build.  Three larger cases pin
the benchmark shapes at seed 0: a rational Vogt box 8 x 4 x 6, the rational
Pelczynski schedule of dimension 10 and every suite in float mode.  Six more
pin tops of the scaled configs, which no benchmark workload runs: the
Pelczynski schedule at dimension 12, the dyadic Vogt box 12 x 6 x 8 and the
normability suite at dimension 12 with 500 families, each in both modes.  A
change to any certificate, to the codec or to the sampled checks' random
draws shows up here as a hash mismatch.
"""

import argparse
import hashlib
import json
from fractions import Fraction

import pytest

from bapkit import cli, jsonio

# rho(mu, nu) = 3**-mu on a 5 x 6 grid, in the codec's encoding
THIRD_TABLE = {
    "kind": "rho",
    "table_kind": "table",
    "values": [[mu, nu, {"num": 1, "den": 3**mu}] for mu in range(1, 6) for nu in range(1, 7)],
    "mu_limit": 5,
    "nu_limit": 6,
}

GOLDEN = {
    ("dyadic", "rational"): "f3e7914548b0dbeabd16fab880dd6ff493745076b922083075b77a9a5f8ba093",
    ("dyadic", "float"): "468d3f2ad9627420ddf6a6eedf10ac0e710d3a23654f4998d0d7025f380491f2",
    ("table", "rational"): "8ed2ae6eff6a9860d44b8f7a67548919f2ad6ec6f720aaab69232bd14793d963",
    ("table", "float"): "de6ee64b68016958f9f2a844cd1026d1a5002b348d1d70c69e879400371cc7d4",
}

# the benchmark shapes, the dimension-12 schedules, the 12 x 6 x 8 Vogt box and the
# normability suite at dimension 12 with 500 families, in both modes, at seed 0, merged
# over the default config
SCALED = {
    "vogt-8x4x6-rational": (
        {
            "suite": "vogt",
            "mode": "rational",
            "vogt": {"rho": "dyadic", "n_max": 8, "mu_max": 4, "nu_max": 6, "level_count": 4},
        },
        "63962c448813b1d9eeabe85fc03744ac58003646105ac04f0cca0b09e5b08ad4",
    ),
    "pelczynski-10-rational": (
        {"suite": "pelczynski", "mode": "rational", "pelczynski": {"dimension": 10}},
        "7ee206c199e9e4afed0d3be7ccd2b6088d6b968a67e8d311f7f2077c439bb144",
    ),
    "pelczynski-12-rational": (
        {"suite": "pelczynski", "mode": "rational", "pelczynski": {"dimension": 12}},
        "fa5546f6922e622e201a59bc13632549e3abefafe604907cf92ea7de33ce86d5",
    ),
    "pelczynski-12-float": (
        {"suite": "pelczynski", "mode": "float", "pelczynski": {"dimension": 12}},
        "88e54207cc671f0b6d3589cbde4251ed6fdaed9c6ed3385393af9c803b00c992",
    ),
    "vogt-12x6x8-rational": (
        {
            "suite": "vogt",
            "mode": "rational",
            "vogt": {"rho": "dyadic", "n_max": 12, "mu_max": 6, "nu_max": 8, "level_count": 4},
        },
        "cfff74844648f4a20807c882b007970105e21f3ba2e885c6fa8467fee68330bf",
    ),
    "vogt-12x6x8-float": (
        {
            "suite": "vogt",
            "mode": "float",
            "vogt": {"rho": "dyadic", "n_max": 12, "mu_max": 6, "nu_max": 8, "level_count": 4},
        },
        "e4b85128d1c894b69acd80cc83788d2506379b6104f37ac95fa7d3b4d1ee10a8",
    ),
    "normability-12-rational": (
        {
            "suite": "normability",
            "mode": "rational",
            "normability": {"dimension": 12, "families": 500},
        },
        "01f9361b9b70e03dfd41ac8641f602b077abd8b33ccdb3e3a07b2cd3687cf340",
    ),
    # float mode: every level-1 read of the 12-coordinate max-prefix system stops at
    # the vector's first entry
    "normability-12-float": (
        {
            "suite": "normability",
            "mode": "float",
            "normability": {"dimension": 12, "families": 500},
        },
        "8fa39be5c03a93a0739d55b550ff81757b8b93c072d052d8877ff42977201a54",
    ),
    "all-float": (
        {
            "suite": "all",
            "mode": "float",
            "vogt": {
                "rho": THIRD_TABLE,
                "n_max": 10,
                "mu_max": 5,
                "nu_max": 6,
                "level_count": 4,
            },
            "pelczynski": {"dimension": 10},
            "normability": {"dimension": 12, "families": 500},
        },
        "fc244bc76757d8fc9aee5c5072908c1c7f5fb06fc31b31a04425d49249e49226",
    ),
}


def _config(override) -> dict:
    """The default config with override merged in, validated."""
    defaults = cli.load_config(None, argparse.Namespace(suite=None, mode=None, seed=None))
    cfg = cli._merge_config(defaults, override)
    cli._validate_config(cfg)
    return cfg


def _sha256(doc) -> str:
    text = json.dumps(doc, sort_keys=True, indent=2)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def documents():
    docs = {}
    for rho_name, mode in GOLDEN:
        rho = "dyadic" if rho_name == "dyadic" else THIRD_TABLE
        doc = cli.build_document(_config({"mode": mode, "vogt": {"rho": rho}}))
        del doc["generated_at"]
        docs[rho_name, mode] = doc
    return docs


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_document_matches_golden_hash(documents, case):
    assert _sha256(documents[case]) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(SCALED))
def test_benchmark_shape_matches_golden_hash(case):
    override, expected = SCALED[case]
    doc = cli.build_document(_config(override))
    del doc["generated_at"]
    assert _sha256(doc) == expected


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_every_report_survives_decode_and_encode(documents, case):
    reports = [
        result["report"]
        for suite in documents[case]["suites"].values()
        for result in suite["checks"].values()
        if result.get("report") is not None
    ]
    assert len(reports) == 13
    for report in reports:
        assert jsonio.encode(jsonio.decode(report)) == report


# configs built in both modes and walked together.  Vogt suite: the dyadic and the table
# rho at the default box, the benchmark box and the largest scaled box
VOGT_TWINS = {
    "dyadic-default": {"suite": "vogt", "vogt": {"rho": "dyadic"}},
    "table-default": {"suite": "vogt", "vogt": {"rho": THIRD_TABLE}},
    "dyadic-8x4x6": {"suite": "vogt", "vogt": {"n_max": 8, "mu_max": 4, "nu_max": 6}},
    "dyadic-12x6x8": {"suite": "vogt", "vogt": {"n_max": 12, "mu_max": 6, "nu_max": 8}},
}

# every suite: the GOLDEN configs, and the SCALED Pelczynski and normability configs
SUITE_TWINS = {
    "all-dyadic": {"suite": "all", "vogt": {"rho": "dyadic"}},
    "all-table": {"suite": "all", "vogt": {"rho": THIRD_TABLE}},
    "pelczynski-10": {"suite": "pelczynski", "pelczynski": {"dimension": 10}},
    "pelczynski-12": {"suite": "pelczynski", "pelczynski": {"dimension": 12}},
    "normability-12": {
        "suite": "normability", "normability": {"dimension": 12, "families": 500}
    },
}

# the float number within this relative distance of its rational twin
TWIN_RELATIVE = 1e-9

# the only fields where the two documents may differ, each with its reason
TWIN_EXEMPT = {
    ("mode",): "each document, and each vector in a report, names its own mode",
    ("injective-extension", "report", "reason"): (
        "the text prints the floor as a scalar of the mode, 8 or 8.0; the report's details"
        " compare that floor as a number"
    ),
    ("normability", "checks", "witness-violation", "report", "reason"): (
        "the text prints the floor as a scalar of the mode, 8 or 8.0"
    ),
    ("pelczynski", "checks", "reconstruction", "report", "traces"): (
        "the residual traces are read at vectors that each mode samples from its own draws"
        " (128, 800 and 1,152 numbers at dimension 4, 10 and 12)"
    ),
}


def _number(node):
    """node as a number: the codec's {"num", "den"} pair as a Fraction, an int or a float as
    it is; None for anything else."""
    if isinstance(node, dict) and set(node) == {"num", "den"}:
        return Fraction(node["num"], node["den"])
    return node if type(node) in (int, float) else None


def _twin_differences(rational, floating, path=()):
    """(path, rational, float) for each place where the float document is not the
    rational one's twin, outside TWIN_EXEMPT."""
    if any(path[-len(key):] == key for key in TWIN_EXEMPT):
        return
    exact, rounded = _number(rational), _number(floating)
    if exact is not None:
        if rounded is None or abs(rounded - exact) > TWIN_RELATIVE * abs(exact):
            yield path, rational, floating
    elif isinstance(rational, dict) and isinstance(floating, dict) and set(rational) == set(floating):
        for key in rational:
            yield from _twin_differences(rational[key], floating[key], (*path, key))
    elif isinstance(rational, list) and isinstance(floating, list) and len(rational) == len(floating):
        for i, (r, f) in enumerate(zip(rational, floating)):
            yield from _twin_differences(r, f, (*path, i))
    elif type(rational) is not type(floating) or rational != floating:
        yield path, rational, floating


def assert_twins(override):
    """The config built in both modes: both documents pass, and they are twins."""
    docs = {}
    for mode in ("rational", "float"):
        doc = cli.build_document(_config({**override, "mode": mode}))
        del doc["generated_at"]
        docs[mode] = doc
    assert docs["rational"]["passed"] and docs["float"]["passed"]
    assert list(_twin_differences(docs["rational"], docs["float"])) == []


@pytest.mark.parametrize("case", sorted(VOGT_TWINS))
def test_the_float_vogt_suite_is_the_rational_one_within_a_relative_tolerance(case):
    assert_twins(VOGT_TWINS[case])


@pytest.mark.parametrize("case", sorted(SUITE_TWINS))
def test_the_float_document_is_the_rational_one_within_a_relative_tolerance(case):
    # the float zero thresholds decide the same ranks, kernels and levels as exact arithmetic
    assert_twins(SUITE_TWINS[case])
