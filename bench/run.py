"""bapkit benchmark: time to a checked JSON verdict, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py            # every workload, untraced and traced

Each repetition is a fresh interpreter (bench/child.py), one at a time: a
closed loop with one client, as a command line user runs `bapkit run`.
The workload config is generated from --seed and is all bapkit sees.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics of a traced run.  The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  `attempted` and
`failed` count checks against their known answers; a repetition that
raises, or whose document differs from the first one's, fails all of its
checks.  Records with machine context, hashes and samples go to
.bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import CONFIGS, KNOWN_ANSWERS, KNOWN_DEFECTS
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

MIN_REPS = 3  # untraced repetitions per run, whatever --seconds says
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def machine_context() -> dict:
    """Python version, usable CPUs, CPU model and load average, read from /proc."""

    def read(path: str) -> str:
        try:
            with open(path, encoding="utf-8") as fh:
                return fh.read()
        except OSError:
            return ""

    model = next(
        (
            line.split(":", 1)[1].strip()
            for line in read("/proc/cpuinfo").splitlines()
            if line.startswith("model name")
        ),
        "unknown",
    )
    nproc = None
    for line in read("/proc/self/status").splitlines():
        if line.startswith("Cpus_allowed_list:"):
            nproc = 0
            for part in line.split(":", 1)[1].strip().split(","):
                lo, _, hi = part.partition("-")
                nproc += int(hi or lo) - int(lo) + 1
    return {
        "python": platform.python_version(),
        "nproc": nproc,
        "cpu_model": model,
        "loadavg": read("/proc/loadavg").split()[:3],
    }


def child(mode: str, config: Path, spans: Path | None = None) -> dict:
    """Run one child interpreter to completion and return its measurements."""
    cmd = [sys.executable, "-I", str(BENCH / "child.py"), mode, str(SRC), str(config)]
    if spans is not None:
        cmd.append(str(spans))
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child ran past {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise BenchError(f"{mode} child exited {proc.returncode}: {' | '.join(tail)}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"{mode} child printed no result")


def write_config(workload: str, seed: int) -> Path:
    path = OUT / f"config-{workload}-seed{seed}.json"
    path.write_text(json.dumps(CONFIGS[workload](seed), indent=2), encoding="utf-8")
    return path


class Checker:
    """Scores repetitions against the known answers and the first document."""

    def __init__(self, workload: str) -> None:
        self.answers = KNOWN_ANSWERS[workload]
        self.defects = KNOWN_DEFECTS.get(workload, {})
        self.attempted = 0
        self.failed = 0
        self.mismatches: dict[str, int] = {}
        self.hashes: dict[int, str] = {}  # seed -> document hash
        self.unexpected: list[str] = []

    def score(self, rep: dict, seed: int) -> None:
        self.attempted += len(self.answers)
        if "error" in rep:
            self.failed += len(self.answers)
            self.unexpected.append(f"seed {seed}: repetition raised {rep['error']}")
            return
        first = self.hashes.setdefault(seed, rep["doc_sha256"])
        if rep["doc_sha256"] != first:
            self.failed += len(self.answers)
            self.unexpected.append(f"seed {seed}: document differs from the first repetition")
            return
        for check, expected in self.answers.items():
            if rep["verdicts"].get(check) != expected:
                self.failed += 1
                self.mismatches[check] = self.mismatches.get(check, 0) + 1
                if check not in self.defects:
                    self.unexpected.append(f"seed {seed}: {check} is not {expected}")
        for check in rep["verdicts"].keys() - self.answers.keys():
            self.unexpected.append(f"seed {seed}: check {check} has no known answer")

    def compare_counts(self, seed: int, reference: dict, counts: dict) -> None:
        diff = sorted(k for k in reference.keys() | counts.keys() if reference.get(k) != counts.get(k))
        if diff:
            self.unexpected.append(f"seed {seed}: counts differ from the first traced run: {diff[:5]}")

    @property
    def correct(self) -> bool:
        return not self.unexpected


def run_untraced(workload: str, seed: int, seconds: float, checker: Checker):
    config = write_config(workload, seed)
    child("setup", config)  # fills the bytecode cache and the page cache
    setups, reps, calibs = [], [], []
    start = time.perf_counter()
    while True:
        setups.append(child("setup", config)["setup_s"])
        calib = child("calib", config)["calib_s"]
        rep_start = time.perf_counter()
        rep = child("run", config)
        rep_wall = time.perf_counter() - rep_start
        checker.score(rep, seed)
        if "error" in rep:
            break
        reps.append(rep)
        calibs.append(calib)
        setups.append(rep["setup_s"])
        elapsed = time.perf_counter() - start
        if len(reps) >= MIN_REPS and elapsed + rep_wall > seconds:
            break
    if not reps:
        return {}, {"setup_s": setups}
    samples = {
        "verdict_s": [r["verdict_s"] for r in reps],
        "verdict_cal": [r["verdict_s"] / c for r, c in zip(reps, calibs)],
        "calib_s": calibs,
        "setup_s": setups,
        "peak_rss_mib": [r["rss_kib"] / 1024 for r in reps],
        "doc_kib": [r["doc_bytes"] / 1024 for r in reps],
    }
    return {name: statistics.median(vals) for name, vals in samples.items()}, samples


def run_traced(workload: str, seed: int, seconds: float, checker: Checker):
    """Traced repetitions at the seed and at seed + 1, plus untraced ones.

    Counts must repeat exactly at the same seed, and the second seed must
    show the same call structure.
    """
    configs = {s: write_config(workload, s) for s in (seed, seed + 1)}
    spans = OUT / f"spans-{workload}-seed{seed}.jsonl"
    child("setup", configs[seed])
    plan = [("run", seed), ("trace", seed), ("trace", seed), ("trace", seed + 1), ("run", seed)]
    untraced, traced, per_rep, reference = [], [], [], None
    rep_wall = 0.0
    start = time.perf_counter()
    while plan or time.perf_counter() - start + rep_wall <= seconds:
        if plan:
            mode, rep_seed = plan.pop(0)
        else:
            mode, rep_seed = ("trace" if len(traced) <= len(untraced) else "run"), seed
        rep_start = time.perf_counter()
        rep = child(mode, configs[rep_seed], spans if mode == "trace" and not traced else None)
        rep_wall = time.perf_counter() - rep_start
        checker.score(rep, rep_seed)
        if "error" in rep:
            continue
        if mode == "run":
            untraced.append(rep["verdict_s"])
            continue
        metrics = tracer.layer_metrics(rep["layers"], rep["counters"])
        if rep_seed == seed:
            # the same seed repeats every count exactly, down to each span
            structure = tracer.call_structure(rep["layers"], rep["counters"])
            reference = reference or structure
            checker.compare_counts(rep_seed, reference, structure)
            traced.append(rep["verdict_s"])
            per_rep.append(metrics)
        elif per_rep:
            # another seed samples other vectors but makes the reported calls
            checker.compare_counts(rep_seed, tracer.counts(per_rep[0]), tracer.counts(metrics))
    if not per_rep or not untraced:
        return {}, {}
    metrics = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
    metrics.update(tracer.counts(per_rep[0]))
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return metrics, {"traced_verdict_s": traced, "untraced_verdict_s": untraced}


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    context = machine_context()
    checker = Checker(workload)
    runner = run_traced if trace else run_untraced
    metrics, samples = runner(workload, seed, seconds, checker)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing and checker.correct:
        raise BenchError(f"metrics not measured: {missing}")
    result = {
        "correct": checker.correct and not missing,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared
            if m["name"] in metrics
        },
    }
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "context": context,
        "doc_sha256": {str(s): h for s, h in checker.hashes.items()},
        "mismatches": checker.mismatches,
        "known_defects": checker.defects,
        "unexpected": checker.unexpected,
        "samples": samples,
        "result": result,
    }
    (OUT / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=2), encoding="utf-8"
    )
    report(record)
    return result


def report(record: dict) -> None:
    ctx, result = record["context"], record["result"]
    print(
        f"== {record['workload']} seed={record['seed']} trace={record['trace']}"
        f" | python {ctx['python']} | nproc {ctx['nproc']} | {ctx['cpu_model']}"
        f" | loadavg {' '.join(ctx['loadavg'])}"
    )
    for seed, digest in record["doc_sha256"].items():
        print(f"document sha256 (without generated_at), seed {seed}: {digest}")
    width = max([len(n) for n in result["metrics"]] + [16])
    for name, metric in result["metrics"].items():
        value = metric["value"]
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6f}"
        print(f"{name:<{width}} {shown} {metric['unit']}")
    wall = record["samples"].get("verdict_s")
    if wall:
        print(
            f"{'verdict_s':<{width}} {statistics.median(wall):>14.6f} s"
            f" (wall clock, median of {len(wall)} repetitions)"
        )
    ratio = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(f"{'check_fail_ratio':<{width}} {ratio:>14.6f} ratio ({result['failed']}/{result['attempted']} checks)")
    for check, count in sorted(record["mismatches"].items()):
        why = record["known_defects"].get(check, "unexpected")
        print(f"failed check {check} x{count}: {why}")
    for problem in record["unexpected"]:
        print(f"INCORRECT: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=sorted(CONFIGS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative (it becomes the config's seed)")
    if not (SRC / "bapkit" / "__init__.py").is_file():
        print(f"error: no bapkit sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workloads = [w["name"] for w in SPEC["workloads"]] if args.workload == "all" else [args.workload]
    traces = (0, 1) if args.trace is None and args.workload == "all" else (args.trace or 0,)
    try:
        results = {
            (w, t): run_one(w, args.seed, args.seconds, t) for w in workloads for t in traces
        }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{name}": metric
                for (w, _), r in results.items()
                for name, metric in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
