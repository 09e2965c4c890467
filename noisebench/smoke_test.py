#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 noisebench/smoke_test.py

Run from the repository root. Runs every workload at a tiny size, untraced
and traced, through run.py, and checks that
  - each run exits 0 and ends with the JSON result line
    {"correct", "attempted", "failed", "metrics"};
  - every metric name matches [A-Za-z0-9_.-]+ and the untraced and traced
    runs report exactly the end_to_end and per_layer metrics that
    BENCHMARK.json lists, with the listed units;
  - a run with a tampered repeat digest (--tamper-digest) fails its
    correctness gate: correct is false and the exit code is 1.
Exits 1 when any check fails. Takes about a minute after the first build.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "5", "--seconds", "1", "--trace", str(trace),
           "--smoke", *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return p.returncode, result, p.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    for w in (x["name"] for x in bench["workloads"]):
        for trace in (0, 1):
            tag = "%s trace=%d" % (w, trace)
            rc, res, err = run(w, trace)
            check(rc == 0, "%s exits 0 (got %d)" % (tag, rc))
            if res is None:
                check(False, "%s prints a JSON result line" % tag)
                sys.stderr.write(err[-2000:])
                continue
            check(set(res) == RESULT_KEYS, "%s result keys" % tag)
            check(res.get("correct") is True, "%s correct" % tag)
            check(isinstance(res.get("attempted"), int) and res["attempted"] >= 1,
                  "%s attempted >= 1" % tag)
            metrics = res.get("metrics", {})
            bad = [n for n in metrics if not NAME_RE.match(n)]
            check(not bad, "%s metric names match [A-Za-z0-9_.-]+ %s" % (tag, bad))
            got = {n: m.get("unit") for n, m in metrics.items()}
            missing = sorted(set(expected[trace]) - set(got))
            extra = sorted(set(got) - set(expected[trace]))
            check(not missing and not extra,
                  "%s metrics listed in BENCHMARK.json (missing %s, unlisted %s)"
                  % (tag, missing, extra))
            wrong_unit = sorted(n for n in got if n in expected[trace]
                                and got[n] != expected[trace][n])
            check(not wrong_unit, "%s units match %s" % (tag, wrong_unit))
        rc, res, _ = run(w, 0, ["--tamper-digest"])
        check(rc == 1 and res is not None and res.get("correct") is False,
              "%s tampered digest fails the gate (exit %d)" % (w, rc))

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
