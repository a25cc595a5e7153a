"""One repetition of a workload in a fresh interpreter.

Usage: python3 child.py MODE SRC CONFIG [SPANS_OUT]

MODE is `calib` (time a fixed pure-Python kernel, no bapkit), `setup`
(import bapkit and validate the config, nothing more),
`run` (also build and serialize the document) or `trace` (the same, with
bapkit's public callables wrapped in spans by tracer.py; SPANS_OUT
receives the spans).  The last stdout line is one JSON object with the
measurements.

Nothing but `sys` and `time` is imported before the setup clock starts,
so setup_s covers `import bapkit` the way a command line user pays it.
"""

import sys
import time


def calibration_kernel() -> None:
    """Fixed work in the style of bapkit's hot paths: exact Fraction
    elimination on a seeded 26 x 26 matrix, then float and dict churn.
    Its time tracks how fast this machine runs Python right now."""
    import random
    from fractions import Fraction

    rng = random.Random(12345)
    n = 26
    m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)] for _ in range(n)]
    lead = 0
    for col in range(n):
        pick = next((r for r in range(lead, n) if m[r][col] != 0), None)
        if pick is None:
            continue
        m[lead], m[pick] = m[pick], m[lead]
        m[lead] = [v / m[lead][col] for v in m[lead]]
        for r in range(n):
            if r != lead and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[lead])]
        lead += 1
    acc, table = 0.0, {}
    for i in range(200_000):
        acc += (i % 7) * 0.5
        table[(i % 1000, i % 3)] = acc


def main() -> int:
    mode, src, config = sys.argv[1:4]
    if mode == "calib":
        t0 = time.perf_counter()
        calibration_kernel()
        print('{"calib_s": %r}' % (time.perf_counter() - t0))
        return 0
    spans_out = sys.argv[4] if len(sys.argv) > 4 else None
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import bapkit.cli as cli

    cfg = cli.load_config(config, cli.argparse.Namespace(suite=None, mode=None, seed=None))
    t1 = time.perf_counter()

    import hashlib
    import json
    import os
    import resource
    import traceback

    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"bapkit imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    out = {"setup_s": t1 - t0}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    rec = None
    if mode == "trace":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer

        rec = tracer.Recorder()
        tracer.install(rec)

    def verdict():
        doc = cli.build_document(cfg)
        if rec is None:
            return doc, json.dumps(doc, sort_keys=True, indent=2)
        return doc, rec.span("cli.dump", json.dumps, doc, sort_keys=True, indent=2)

    t2 = time.perf_counter()
    try:
        doc, text = rec.span("verdict", verdict) if rec else verdict()
    except Exception as exc:  # a raising repetition is scored as failed, not fatal
        traceback.print_exc()
        out["error"] = f"{type(exc).__name__}: {exc}"
        print(json.dumps(out))
        return 0
    t3 = time.perf_counter()
    out["verdict_s"] = t3 - t2
    out["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["doc_bytes"] = len(text.encode("utf-8")) + 1  # cmd_run adds a newline
    out["verdicts"] = {
        f"{suite}/{check}": result.get("passed") is True
        for suite, body in doc["suites"].items()
        for check, result in body["checks"].items()
    }
    doc.pop("generated_at", None)
    stable = json.dumps(doc, sort_keys=True, indent=2).encode("utf-8")
    out["doc_sha256"] = hashlib.sha256(stable).hexdigest()
    if rec is not None:
        out["layers"] = rec.per_name()
        out["counters"] = dict(rec.counters)
        out["counters"]["polyhedral.linalg_calls"] = rec.calls_from(
            "polyhedral", tracer.LINALG_FROM_POLYHEDRAL
        )
        if spans_out:
            rec.write(spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
