#!/usr/bin/env python3
"""Build the benchmark from the checkout's source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload churn --seed 1 --seconds 10 --trace 0

The untraced run (--trace 0) measures in PROCESSES separate processes,
each for an equal share of --seconds, process i on the inputs of seed
seed*PROCESSES+i, and reports each end-to-end metric as the median over
them. A run then averages over several data sets (the index a data set
builds, and so its query cost, varies from one to the next) and over
several processes (on a small shared host a whole process can run
slow); the same seed still gives the same inputs. The traced run
(--trace 1) is one process on the first of those data sets. The Go build cache,
the binary, the stores and the trace files all live under .bench_build/
in the repository root, so nothing is read or written outside the
checkout apart from the Go toolchain itself. The exit code is the
benchmark's: non-zero when the build fails, an output check fails or the
run cannot complete.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
PROCESSES = 5


def commit_stamp():
    """The git commit when the checkout has one, else a digest of the Go source."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def main():
    if not (os.path.isfile(os.path.join(ROOT, "go.mod"))
            and os.path.isdir(os.path.join(ROOT, "internal"))):
        print("perfbench: the repository source is not beside the benchmark", file=sys.stderr)
        return 2
    go = shutil.which("go")
    if go is None:
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 2
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ,
               GOCACHE=os.path.join(BUILD, "gocache"),
               GOPATH=os.path.join(BUILD, "gopath"),
               GOTMPDIR=tmp,
               TMPDIR=tmp,
               XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
               GOTOOLCHAIN="local",
               GOFLAGS="")
    binary = os.path.join(BUILD, "perfbench-bin")
    build = subprocess.run([go, "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    args, _ = parse_args()
    common = ["--workdir", os.path.join(BUILD, "perfbench"), "--commit", commit_stamp()]
    sys.stdout.flush()
    if args.trace != 0:
        return subprocess.run([binary, "--workload", args.workload, "--seed", str(args.seed * PROCESSES),
                               "--seconds", repr(args.seconds), "--trace", str(args.trace), *common],
                              cwd=ROOT, env=env).returncode
    print("run " + json.dumps({"seed": args.seed, "process_seeds": [args.seed * PROCESSES + i for i in range(PROCESSES)]}))
    results = []
    for i in range(PROCESSES):
        child = subprocess.run([binary, "--workload", args.workload, "--seed", str(args.seed * PROCESSES + i),
                                "--seconds", repr(args.seconds / PROCESSES), "--trace", "0", *common],
                               cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.rstrip("\n").split("\n")
        try:
            res = json.loads(lines[-1])
        except (ValueError, IndexError):
            sys.stdout.write(child.stdout)
            print(f"perfbench: process {i + 1} exited {child.returncode} without a result", file=sys.stderr)
            return child.returncode or 1
        for line in lines[:-1]:
            print(f"[{i + 1}] {line}")
        print(f"[{i + 1}] result {lines[-1]}")
        results.append(res)
    return combine(results)


def parse_args():
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--workload", default="")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, default=0)
    return p.parse_known_args()


def combine(results):
    """Print the median of each metric over the processes and the result line."""
    metrics = {}
    for name, m in results[0]["metrics"].items():
        value = statistics.median(r["metrics"][name]["value"] for r in results)
        metrics[name] = {"value": value, "unit": m["unit"]}
        print(f"{name:30s} {value:14.6g} {m['unit']}  (median of {len(results)} processes)")
    out = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
