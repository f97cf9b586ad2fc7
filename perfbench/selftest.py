#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Builds the driver like run.py, then checks that
  * every workload prints every metric named in BENCHMARK.json, with its
    unit, and a passing result (--trace 0: end_to_end, --trace 1: per_layer);
  * the answer checker rejects a deliberately altered answer;
  * the seed drives the generated inputs (same seed, same inputs; a different
    seed, different inputs).
Exits non-zero on the first failure.
"""
import json
import os
import subprocess
import sys

import run

SPEC = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))


def tossbench(*args):
    cmd = [run.BINARY, "--tiny",
           "--trace-dir", os.path.join(run.BUILD, "selftest-traces"),
           "--tmp-dir", os.path.join(run.BUILD, "tmp")] + list(args)
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        fail(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr[-400:]}")
    return proc.stdout.strip().splitlines()


def fail(msg):
    sys.exit("selftest: FAIL: " + msg)


def result(lines):
    return json.loads(lines[-1])


def check_metrics():
    for w in SPEC["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            r = result(tossbench("--workload", w["name"], "--seed", "3",
                                 "--seconds", "1", "--trace", trace))
            if set(r) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{w['name']}: result keys {sorted(r)}")
            if not (r["correct"] and r["failed"] == 0 and r["attempted"] >= 1):
                fail(f"{w['name']} trace={trace}: {r['correct']=} "
                     f"{r['failed']=} {r['attempted']=}")
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            if got != want:
                fail(f"{w['name']} trace={trace}: metrics differ: "
                     f"missing {sorted(set(want) - set(got))}, "
                     f"extra {sorted(set(got) - set(want))}, units "
                     f"{[k for k in want if k in got and got[k] != want[k]]}")
            for k, v in r["metrics"].items():
                if not isinstance(v["value"], (int, float)):
                    fail(f"{w['name']}: {k} is not a number")


def check_rejects_altered_answer():
    for w in ("select_narrow", "join"):
        r = result(tossbench("--workload", w, "--seed", "3", "--seconds", "1",
                             "--trace", "0", "--corrupt-answer"))
        if r["correct"] or r["failed"] < 1:
            fail(f"{w}: altered answer accepted: {r['correct']=} {r['failed']=}")


def check_seed_drives_inputs():
    for w in SPEC["workloads"]:
        def digest(seed):
            return tossbench("--workload", w["name"], "--seed", seed,
                             "--inputs-digest")[-1]
        a, b, c = digest("1"), digest("1"), digest("2")
        if a != b:
            fail(f"{w['name']}: same seed, different inputs")
        if a == c:
            fail(f"{w['name']}: different seeds, same inputs")


def main():
    run.build()
    check_metrics()
    check_rejects_altered_answer()
    check_seed_drives_inputs()
    print("selftest: ok")


if __name__ == "__main__":
    main()
