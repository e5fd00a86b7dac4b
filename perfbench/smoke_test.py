#!/usr/bin/env python3
"""Smoke test of the benchmark code: every workload on tiny graphs, untraced
and traced. Checks that each run exits 0, reports no failed op, prints exactly
the metrics BENCHMARK.json lists (with their units) and, when traced, writes
its spans. Run from the root of a source checkout:

    python3 perfbench/smoke_test.py
"""
import json
import os
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for w in (x["name"] for x in bench["workloads"]):
        for trace in (0, 1):
            spans = os.path.join(".bench_build", "spans", f"{w}-seed1.json")
            if os.path.exists(spans):
                os.remove(spans)
            cmd = bench["command"] + ["--workload", w, "--seed", "1", "--seconds", "1",
                                      "--trace", str(trace), "--smoke"]
            p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            where = f"{w} --trace {trace}"
            before = len(problems)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                problems.append(f"{where}: exit {p.returncode}\n{p.stderr[-3000:]}")
                continue
            r = json.loads(lines[-1])
            if sorted(r) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(r)}")
            if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                problems.append(f"{where}: correct={r['correct']} failed={r['failed']} "
                                f"attempted={r['attempted']}\n{p.stderr[-3000:]}")
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(expected[trace]) - set(got))}, "
                                f"extra {sorted(set(got) - set(expected[trace]))}")
            if trace == 0 and any(v["value"] <= 0 for v in r["metrics"].values()):
                problems.append(f"{where}: an end-to-end metric is not positive")
            if trace == 1 and not os.path.exists(spans):
                problems.append(f"{where}: no span file")
            print(f"{'ok' if len(problems) == before else 'FAIL'}  {where}", flush=True)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        sys.exit(1)
    print("smoke test passed")


if __name__ == "__main__":
    main()
