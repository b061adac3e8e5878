#!/usr/bin/env python3
"""Build the runtime from source and run the repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> \
        --trace <0|1> [--record runs.jsonl]

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build), configured once and rebuilt incrementally. The last line of
standard output is the result object; with --record the environment header
and the result are also appended to a JSONL file for compare.py.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_dir():
    return os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build"),
                        "perfbench")


def build():
    """Configure (once) and build the perfbench binary; returns its path or None."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", "4"])
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout's last line is the result.
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            print("perfbench: build failed: %s" % e, file=sys.stderr)
            return None
        if proc.returncode != 0:
            print("perfbench: build failed: %s" % " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(out, "perfbench")


def git_sha():
    """HEAD of the repository at ROOT, or "unknown" outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_one(exe, args, workload):
    """Run one workload; returns (exit code, stdout text)."""
    cmd = [exe, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--sha", git_sha()]
    if args.inject:
        cmd += ["--inject", args.inject]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout


def last_json(text, key):
    """The last line of `text` that parses as a JSON object holding `key`."""
    for line in reversed(text.splitlines()):
        if line.startswith("{"):
            try:
                obj = json.loads(line)
            except ValueError:
                continue
            if key in obj:
                return obj
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--record", help="append env header + result to this JSONL file")
    ap.add_argument("--inject", choices=("corrupt_stream", "wrong_count"),
                    help="break the output check on purpose (tests)")
    args = ap.parse_args()

    exe = build()
    if exe is None:
        return 1
    if args.workload == "all":
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
    else:
        workloads = [args.workload]

    code = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads:
        rc, out = run_one(exe, args, w)
        result = last_json(out, "correct")
        env = last_json(out, "env")
        if rc != 0 or result is None:
            code = code or rc or 1
        if result is None:
            sys.stdout.write(out)
            continue
        if args.record and env is not None:
            with open(args.record, "a") as f:
                f.write(json.dumps({"env": env["env"], "result": result}) + "\n")
        if len(workloads) == 1:
            sys.stdout.write(out)
            break
        sys.stdout.write("== %s\n" % w + "\n".join(out.splitlines()[:-1]) + "\n")
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"]["%s.%s" % (w, name)] = m
    if len(workloads) > 1:
        combined["correct"] = combined["correct"] and code == 0
        print(json.dumps(combined))
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
