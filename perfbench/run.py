#!/usr/bin/env python3
"""Layered step benchmark: build from this checkout's sources, run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

Builds perfbench/ (which compiles ../src) with CMake into $CARGO_TARGET_DIR
(default .bench_build) under the checkout root, runs the stepbench binary with
OMP_NUM_THREADS set to the workload's per-rank team size, checks the final
P(k) against perfbench/reference.json, stamps the record with a host
fingerprint, appends it to <build>/perfbench-records.jsonl and prints the
result line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end_to_end metrics of BENCHMARK.json, --trace 1 the
per_layer ones. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_root():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(build_dir):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        die(f"no src/ beside {HERE}: nothing to build")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [["cmake", "--build", build_dir, "-j", jobs]]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "stepbench")


def source_rev():
    """git HEAD when the checkout is a repository, else a hash of src/."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0:
            return rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha1()
    for d, _, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        for name in sorted(files):
            path = os.path.join(d, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-sha1:" + h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def reference_error(workload, final_pk):
    """"" when the final P(k) matches perfbench/reference.json.

    A 64 Mpc/h box at z = 0 carries large sample variance in its overall
    amplitude, much less in its shape, so the two are checked apart: the
    band's mean power within a factor of the reference, and each band bin's
    power over that mean within a relative tolerance.
    """
    with open(os.path.join(HERE, "reference.json")) as f:
        ref = json.load(f).get(workload)
    if ref is None:
        return f"no reference spectrum for {workload}"
    got = {round(k, 3): p for k, p, _ in final_pk}
    band = [got.get(round(k, 3)) for k in ref["k"]]
    if None in band:
        return "reference k bins missing from the final spectrum"
    amplitude = sum(band) / len(band)
    bad = []
    if not 1 / ref["amplitude_factor"] <= amplitude / ref["amplitude"] <= ref["amplitude_factor"]:
        bad.append(f"band amplitude {amplitude:.4g} vs {ref['amplitude']:.4g}")
    for k, p, shape in zip(ref["k"], band, ref["shape"]):
        if abs(p / amplitude / shape - 1) > ref["shape_rtol"]:
            bad.append(f"shape at k={k}: {p / amplitude:.4g} vs {shape:.4g}")
    return "; ".join(bad)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="seconds-long size of the workload (self-test)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    root = build_root()
    exe = build(os.path.join(root, "perfbench"))
    smoke = ["--smoke"] if args.smoke else []
    shape = subprocess.run([exe, "--workload", args.workload, "--describe"] + smoke,
                           capture_output=True, text=True)
    if shape.returncode:
        die(shape.stderr.strip() or "unknown workload")
    shape = json.loads(shape.stdout)

    run_name = f"{args.workload}-s{args.seed}-t{args.trace}" + ("-smoke" if args.smoke else "")
    out = os.path.join(root, "perfbench-runs", run_name)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    env = dict(os.environ, OMP_NUM_THREADS=str(shape["threads"]))
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out] + smoke
    # A run steps round(seconds / nominal) trajectories, so its wall grows
    # with --seconds; 3 * seconds + 80 gives 170 s at --seconds 30.
    timeout = 3 * args.seconds + 80
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout)
        lines = proc.stdout.strip().splitlines()
        record = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        error = None if record else f"stepbench exited {proc.returncode}: {proc.stderr[-2000:]}"
    except subprocess.TimeoutExpired:
        record, error = None, f"stepbench exceeded {timeout:g} s"
    if record is None:
        record = {"attempted": 1, "failed": 1, "failures": [error], "checks": {},
                  "metrics": {}, "final_pk": []}

    if not args.smoke:
        for i, pk in enumerate(record["final_pk"]):
            err = reference_error(args.workload, pk)
            record["attempted"] += 1
            record["failed"] += 1 if err else 0
            record["checks"][f"reference_pk.{i}"] = err

    record["metrics"]["failed_frac"] = {
        "value": record["failed"] / max(1, record["attempted"]), "unit": "fraction"}
    record["fingerprint"] = {
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "ranks_x_threads": f"{shape['ranks']}x{shape['threads']}",
        "compiler": record.get("compiler"),
        "cxx_flags": record.get("cxx_flags"),
        "build_type": record.get("build_type"),
        "fma_peak_gflops_per_core": record.get("fma_peak_gflops"),
        "source_rev": source_rev(),
    }
    if args.trace:
        record["spans"] = os.path.join(out, "spans.jsonl")
    with open(os.path.join(root, "perfbench-records.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")

    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None:
            record["failed"] += 1
            record["attempted"] += 1
            record["failures"].append(f"metric {m['name']} missing")
            got = {"value": 0, "unit": m["unit"]}
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    for msg in record["failures"]:
        print(f"FAILED {msg}")
    for name, detail in record["checks"].items():
        print(f"check {name}: {'ok' if not detail else detail}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": max(1, record["attempted"]),
                      "failed": record["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
