#!/usr/bin/env python3
"""Self-test of the benchmark itself (about a minute):

    python3 perfbench/selftest.py

1. every workload at its smoke size, untraced and traced, through run.py:
   the result line is correct and carries exactly the BENCHMARK.json
   metrics of its mode with their units; the traced run writes a span file
   whose replayed steps have layer spans and waits;
2. failure accounting: the reproduced ghost-bound case (pm-long-range at
   full size in 2 steps from z = 50 trips the DistGrid bounds check) is
   recorded as a failure with its message, and the run still prints its
   record;
3. a directory holding only BENCHMARK.json and perfbench/ makes run.py
   exit non-zero without a result line.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []

    for w in bench["workloads"]:
        for trace in (0, 1):
            name = f"{w['name']} trace={trace}"
            before = len(problems)
            p = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w["name"],
                 "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"],
                capture_output=True, text=True, timeout=300)
            res = last_json(p.stdout) if p.returncode == 0 else None
            if res is None:
                problems.append(f"{name}: no result (exit {p.returncode}) {p.stderr[-500:]}")
                continue
            wanted = bench["per_layer" if trace else "end_to_end"]
            if not res["correct"]:
                problems.append(f"{name}: not correct:\n{p.stdout[-1500:]}")
            if list(res["metrics"]) != [m["name"] for m in wanted] or any(
                    res["metrics"][m["name"]]["unit"] != m["unit"] for m in wanted):
                problems.append(f"{name}: metric names or units differ from BENCHMARK.json")
            if trace:
                spans = os.path.join(run.build_root(), "perfbench-runs",
                                     f"{w['name']}-s1-t1-smoke", "spans.jsonl")
                with open(spans) as f:
                    rows = [json.loads(line) for line in f]
                roots = [r for r in rows if r["name"] == "replay.step"]
                layers = {r["name"].split(".")[0] for r in rows}
                if not roots or not {"mesh", "core", "comm", "tree"} <= layers:
                    problems.append(f"{name}: span file lacks replayed steps or layers")
            print(("ok " if len(problems) == before else "FAIL ") + name)

    # Failure accounting: the ghost-bound HACC_CHECK fires, is recorded,
    # and the harness still reports.
    exe = os.path.join(run.build_root(), "perfbench", "stepbench")
    out = os.path.join(run.build_root(), "perfbench-runs", "selftest-failure")
    shutil.rmtree(out, ignore_errors=True)
    p = subprocess.run([exe, "--workload", "pm-long-range", "--seed", "1", "--seconds", "1",
                        "--trace", "0", "--out", out, "--steps", "2"],
                       capture_output=True, text=True, timeout=300,
                       env=dict(os.environ, OMP_NUM_THREADS="1"))
    rec = last_json(p.stdout) if p.returncode == 0 else None
    if rec is None or rec["failed"] < 1 or "grid.h" not in " ".join(rec["failures"]):
        problems.append(f"failure accounting: expected a recorded failure, got {p.stdout[-800:]}")
    else:
        print(f"ok failure accounting: {rec['failures'][0][:120]}")

    # Bare directory: no sources to build, so no result.
    bare = os.path.join(run.build_root(), "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tree-clustered",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=bare, capture_output=True, text=True, timeout=170,
                       env={k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"})
    if p.returncode == 0 or '"correct"' in p.stdout:
        problems.append("bare directory: run.py should fail without a result")
    else:
        print("ok bare directory refused")
    shutil.rmtree(bare, ignore_errors=True)

    for msg in problems:
        print("FAIL", msg)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
