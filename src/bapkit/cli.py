"""Command line front end: canned verification suites and a statement map.

`bapkit run` executes one suite (or all) and emits a JSON document whose
content is deterministic for a fixed config and seed, up to the
generated_at stamp.  Exit codes: 0 all checks passed, 1 a check failed or
a construction refused an input, 2 configuration or usage problems.
"""

from __future__ import annotations

import argparse
import copy
import json
import random
import sys
from datetime import datetime, timezone
from fractions import Fraction

from . import __version__
from .errors import BapkitError, ConfigError
from .embedding import (
    EQUICONTINUITY_FACTOR,
    basis_criterion_check,
    certify_equicontinuity,
    embed,
    project,
    verify_reconstruction,
)
from .jsonio import decode, encode
from .normability import basis_sup_norms, dv_condition_check, injective_extension_test
from .normability import CauchyFamily, GeometricForm, VanishingEvidence
from .operators import FiniteRankOperator, build_schedule
from .scalars import FLOAT, RATIONAL
from .seminorms import KoetheSeminorms, MaxPrefixSeminorms, RhoTable
from .spaces import SingleBox, TripleBox, vector_from_dense
from .vogt import (
    VogtInstance,
    bap_failure_witness,
    comparison_inequality_check,
    norm_positivity_check,
    nuclearity_certificate,
    witness_evidence,
)

SUITES = ("vogt", "pelczynski", "normability")

_DEFAULTS = {
    "suite": "all",
    "mode": RATIONAL,
    "seed": 0,
    "vogt": {"rho": "dyadic", "n_max": 5, "mu_max": 3, "nu_max": 4, "level_count": 4},
    "pelczynski": {"dimension": 4},
    "normability": {"dimension": 4, "families": 20},
}


def _merge_config(base: dict, override: dict, path: str = "") -> dict:
    out = dict(base)
    for key, val in override.items():
        if key not in base:
            raise ConfigError(f"unknown config key {path + key!r}")
        if isinstance(base[key], dict):
            if not isinstance(val, dict):
                raise ConfigError(f"config key {path + key!r} must be an object")
            out[key] = _merge_config(base[key], val, path + key + ".")
        else:
            out[key] = val
    return out


def load_config(path: str | None, args: argparse.Namespace) -> dict:
    cfg = copy.deepcopy(_DEFAULTS)
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}")
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config {path!r} is not valid JSON: {exc.msg} at byte {exc.pos}"
            )
        except RecursionError:
            raise ConfigError(f"config {path!r} nests too deeply to parse")
        if not isinstance(data, dict):
            raise ConfigError(f"config {path!r} must hold a JSON object")
        cfg = _merge_config(cfg, data)
    if args.suite is not None:
        cfg["suite"] = args.suite
    if args.mode is not None:
        cfg["mode"] = args.mode
    if args.seed is not None:
        cfg["seed"] = args.seed
    _validate_config(cfg)
    return cfg


def _is_int(value) -> bool:
    """JSON integers only: bool is an int subclass but never a count."""
    return isinstance(value, int) and not isinstance(value, bool)


def _validate_config(cfg: dict) -> None:
    if cfg["suite"] not in SUITES + ("all",):
        raise ConfigError(f"suite must be one of {SUITES + ('all',)}, got {cfg['suite']!r}")
    if cfg["mode"] not in (RATIONAL, FLOAT):
        raise ConfigError(f"mode must be {RATIONAL!r} or {FLOAT!r}, got {cfg['mode']!r}")
    if not _is_int(cfg["seed"]) or cfg["seed"] < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {cfg['seed']!r}")
    v = cfg["vogt"]
    for key in ("n_max", "mu_max", "nu_max", "level_count"):
        if not _is_int(v[key]) or v[key] < 1:
            raise ConfigError(f"vogt.{key} must be a positive integer, got {v[key]!r}")
    if v["level_count"] < 3:
        raise ConfigError("vogt.level_count must be >= 3 for the witness family")
    if v["n_max"] < 4:
        raise ConfigError("vogt.n_max must be >= 4 for the witness family")
    if v["nu_max"] < 2:
        raise ConfigError("vogt.nu_max must be >= 2 for the witness family")
    # the 12 x 6 x 8 box and 12 levels, the largest Vogt config that CI runs
    size = v["n_max"] * v["mu_max"] * v["nu_max"]
    if size > 576:
        raise ConfigError(f"the vogt box has {size} coordinates; at most 576, as 12 x 6 x 8")
    if v["level_count"] > 12:
        raise ConfigError("vogt.level_count must be at most 12")
    if v["rho"] != "dyadic" and not isinstance(v["rho"], dict):
        raise ConfigError("vogt.rho must be 'dyadic' or an encoded decay table")
    _decode_rho(v["rho"], cfg["mode"])
    for name in ("pelczynski", "normability"):
        if not _is_int(cfg[name]["dimension"]) or not 2 <= cfg[name]["dimension"] <= 12:
            raise ConfigError(f"{name}.dimension must be an integer in 2..12")
    fam = cfg["normability"]["families"]
    if not _is_int(fam) or not 1 <= fam <= 500:
        raise ConfigError("normability.families must be an integer in 1..500")


def _decode_rho(spec, mode: str):
    """The config's decay table; in float mode every entry must be a normal float,
    whose reciprocal is then finite too, since the checks divide by it."""
    if spec == "dyadic":
        return RhoTable.dyadic()
    try:
        rho = decode(spec)
    except RecursionError:
        raise ConfigError("vogt.rho does not decode: it nests too deeply")
    except (BapkitError, ZeroDivisionError, TypeError, ValueError) as exc:
        raise ConfigError(f"vogt.rho does not decode: {exc}")
    if not isinstance(rho, RhoTable):
        raise ConfigError("vogt.rho must decode to a decay table")
    if mode == FLOAT:
        for mu, nu, value in rho.values:
            if float(value) < sys.float_info.min:
                raise ConfigError(
                    f"vogt.rho entry ({mu},{nu}) is below the normal float range"
                )
    return rho


def _vogt_instance(cfg: dict) -> VogtInstance:
    v = cfg["vogt"]
    return VogtInstance(
        rho=_decode_rho(v["rho"], cfg["mode"]),
        box=TripleBox(v["n_max"], v["mu_max"], v["nu_max"]),
        mode=cfg["mode"],
        level_count=v["level_count"],
    )


def run_suite_vogt(cfg: dict):
    instance = _vogt_instance(cfg)
    seed = cfg["seed"]
    checks = {}
    rep = comparison_inequality_check(instance, rng=random.Random(seed), sample_count=40)
    checks["comparison-inequality"] = {"passed": rep.passed, "report": encode(rep)}
    for level in (1, 2):
        if level < instance.level_count:
            cert = nuclearity_certificate(instance, level)
            checks[f"nuclearity-level-{level}"] = {
                "passed": cert.passed,
                "report": encode(cert),
            }
    pos = norm_positivity_check(instance)
    checks["norm-positivity"] = {"passed": pos.passed, "report": encode(pos)}
    witness = bap_failure_witness(instance)
    checks["failure-witness"] = {"passed": True, "report": encode(witness)}
    verdict = injective_extension_test(
        instance.system(),
        witness.cauchy,
        witness.vanishing_level,
        witness.decay_form,
        witness.floor,
    )
    checks["injective-extension"] = {"passed": verdict.violated, "report": encode(verdict)}
    return all(c["passed"] for c in checks.values()), checks


def run_suite_pelczynski(cfg: dict):
    d = cfg["pelczynski"]["dimension"]
    mode = cfg["mode"]
    seed = cfg["seed"]
    box = SingleBox(d)
    weights = tuple(tuple(k for _ in range(d)) for k in range(1, d + 1))
    system = KoetheSeminorms(weights, box, mode)
    family = []
    for p in range(1, d + 1):
        rows = [[1 if (i == j == p - 1) else 0 for j in range(d)] for i in range(d)]
        family.append(FiniteRankOperator.from_matrix(box, mode, rows, label=f"coord{p}"))
    checks = {}
    schedule = build_schedule(family, system, rng=random.Random(seed), prefix_samples=25)
    checks["schedule"] = {"passed": True, "report": encode(schedule)}
    cert = certify_equicontinuity(
        system, schedule, rng=random.Random(seed + 1), sample_count=15
    )
    checks["equicontinuity"] = {"passed": True, "report": encode(cert)}
    rec = verify_reconstruction(
        system, schedule, rng=random.Random(seed + 2), sample_count=8
    )
    checks["reconstruction"] = {"passed": rec.passed, "report": encode(rec)}
    bas = basis_criterion_check(system, schedule, rng=random.Random(seed + 3), sample_count=10)
    checks["basis-criterion"] = {"passed": bas.passed, "report": encode(bas)}
    rng = random.Random(seed + 4)
    idempotent = True
    for _ in range(5):
        dense = [rng.randint(-5, 5) for _ in range(d)]
        x = vector_from_dense(box, mode, dense)
        y = embed(schedule, x)
        once = project(y)
        twice = project(once)
        if once.coefficients != twice.coefficients:
            idempotent = False
    checks["projection-idempotent"] = {"passed": idempotent, "report": None}
    return all(c["passed"] for c in checks.values()), checks


def run_suite_normability(cfg: dict):
    mode = cfg["mode"]
    seed = cfg["seed"]
    checks = {}
    # leg 1: the witness family must trip both diagnostics
    instance = _vogt_instance(cfg)
    witness = bap_failure_witness(instance)
    verdict = dv_condition_check(
        instance.system(),
        {witness.floor_level: witness.cauchy_level},
        witness.vanishing_level,
        [witness_evidence(witness)],
    )
    checks["witness-violation"] = {"passed": verdict.violated, "report": encode(verdict)}
    # leg 2: a plain prefix system with decaying families stays consistent, and each
    # family's decay form must dominate its raw trace at level 1; an unfloored family
    # claims no modulus, since dv_condition_check reads only its vectors.  The families
    # are drawn one at a time as the check reads them: it draws nothing itself, so the
    # RNG stream is the same as drawing them all first
    d = cfg["normability"]["dimension"]
    box = SingleBox(d)
    prefix = MaxPrefixSeminorms(box, mode, d)
    rng = random.Random(seed + 10)

    def families():
        for _ in range(cfg["normability"]["families"]):
            if mode == RATIONAL:
                base_vec = [Fraction(rng.randint(-5, 5)) for _ in range(d)]
                ratio = Fraction(1, rng.randint(2, 4))
            else:
                base_vec = [rng.gauss(0.0, 1.0) for _ in range(d)]
                ratio = 1.0 / rng.randint(2, 4)
            level = rng.randint(2, d)
            x0 = vector_from_dense(box, mode, base_vec)
            vectors = tuple(x0.scale(ratio**i) for i in range(1, 6))
            scale = max([abs(c) for c in base_vec] + [1 if mode == RATIONAL else 1.0])
            yield VanishingEvidence(
                family=CauchyFamily(level, vectors, ()),
                decay_form=GeometricForm(scale=scale, ratio=ratio, shift=0),
                floor=None,
            )

    jmap = {k: k + 1 for k in range(1, d)}
    verdict2 = dv_condition_check(prefix, jmap, 1, families())
    checks["clean-system-consistent"] = {
        "passed": not verdict2.violated,
        "report": encode(verdict2),
    }
    # leg 3: sup norms over a biorthogonal pair, with a strict gap
    box2 = SingleBox(2)
    base = KoetheSeminorms(((1, 1),), box2, mode)
    a1 = FiniteRankOperator.from_matrix(box2, mode, [[1, 0], [1, 0]], label="a1")
    a2 = FiniteRankOperator.from_matrix(box2, mode, [[0, 0], [-1, 1]], label="a2")
    report = basis_sup_norms(base, [a1, a2], rng=random.Random(seed + 11), sample_count=20)
    y = vector_from_dense(box2, mode, [1, 0])
    sup_val = report.system.value(1, y)
    base_val = base.value(1, y)
    strict = sup_val == 2 and base_val == 1
    checks["sup-norm-upgrade"] = {
        "passed": report.passed and strict,
        "report": encode(report),
    }
    return all(c["passed"] for c in checks.values()), checks


_RUNNERS = {
    "vogt": run_suite_vogt,
    "pelczynski": run_suite_pelczynski,
    "normability": run_suite_normability,
}


def build_document(cfg: dict) -> dict:
    selected = SUITES if cfg["suite"] == "all" else (cfg["suite"],)
    suites = {}
    overall = True
    for name in selected:
        try:
            passed, checks = _RUNNERS[name](cfg)
        except BapkitError as exc:
            passed = False
            checks = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        suites[name] = {"passed": passed, "checks": checks}
        overall = overall and passed
    return {
        "version": __version__,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "config": cfg,
        "suites": suites,
        "passed": overall,
    }


_STATEMENTS = (
    ("level-monotonicity", "values nondecreasing across levels", "bapkit.seminorms"),
    (
        "primed-comparison",
        "value(p) <= primed(p) <= 2 * value(p+1)",
        "bapkit.vogt.comparison_inequality_check",
    ),
    (
        "diagonal-nuclearity",
        "transfer sum converges to (level ratio / (1 - level ratio))**3",
        "bapkit.vogt.nuclearity_certificate",
    ),
    (
        "truncated-positivity",
        "every truncated level is a norm; per-column q * rho > 1",
        "bapkit.vogt.norm_positivity_check",
    ),
    (
        "vanishing-floor-witness",
        "Cauchy at a high level, vanishing low, floored between",
        "bapkit.vogt.bap_failure_witness",
    ),
    (
        "injective-extension",
        "no continuous injective extension past the floor",
        "bapkit.normability.injective_extension_test",
    ),
    (
        "dominated-vanishing",
        "comparison-level condition j(k) > k on observed families; every unfloored"
        " family's decay form dominates its raw base-level trace",
        "bapkit.normability.dv_condition_check",
    ),
    (
        "rank-one-splitting",
        "pieces resum to the identity on the range, constants certified",
        "bapkit.operators.rank_one_split",
    ),
    (
        "damped-replication",
        "every prefix stays within twice the input value",
        "bapkit.operators.scale_and_replicate",
    ),
    (
        "schedule-sandwich",
        f"value(k, x) <= |||I(x)|||_k <= {EQUICONTINUITY_FACTOR} * M_k * value(l(k), x)",
        "bapkit.embedding.certify_equicontinuity",
    ),
    (
        "basis-criterion",
        "coefficient terms within twice the graded value; seminorm triangle inequality",
        "bapkit.embedding.basis_criterion_check",
    ),
    (
        "sup-norm-upgrade",
        "biorthogonal partial-sum norms dominate the base values",
        "bapkit.normability.basis_sup_norms",
    ),
)


def cmd_explain(_args: argparse.Namespace) -> int:
    name_w = max(len(s[0]) for s in _STATEMENTS)
    loc_w = max(len(s[2]) for s in _STATEMENTS)
    print(f"{'name':<{name_w}}  {'entry point':<{loc_w}}  statement")
    print(f"{'-' * name_w}  {'-' * loc_w}  {'-' * 9}")
    for name, statement, location in _STATEMENTS:
        print(f"{name:<{name_w}}  {location:<{loc_w}}  {statement}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, args)
    if args.out is not None:
        # fail before the suites run, and without truncating an existing file
        try:
            open(args.out, "a", encoding="utf-8").close()
        except OSError as exc:
            raise ConfigError(f"cannot write --out {args.out!r}: {exc.strerror or exc}")
    doc = build_document(cfg)
    text = json.dumps(doc, sort_keys=True, indent=2)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        for name, suite in sorted(doc["suites"].items()):
            for check, result in sorted(suite["checks"].items()):
                state = "pass" if result.get("passed") else "FAIL"
                print(f"{name}/{check}: {state}")
        print(f"overall: {'pass' if doc['passed'] else 'FAIL'} -> {args.out}")
    else:
        print(text)
    return 0 if doc["passed"] else 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bapkit",
        description="verification suites for graded seminorm constructions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute a verification suite")
    run.add_argument("--config", metavar="PATH", help="JSON config file")
    run.add_argument("--suite", choices=SUITES + ("all",), help="suite to run")
    run.add_argument("--out", metavar="PATH", help="write the JSON document here")
    run.add_argument("--seed", type=int, help="seed for sampled checks")
    run.add_argument("--mode", choices=(RATIONAL, FLOAT), help="arithmetic mode")
    run.set_defaults(fn=cmd_run)
    explain = sub.add_parser("explain", help="list the implemented statements")
    explain.set_defaults(fn=cmd_explain)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
