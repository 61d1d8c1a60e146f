#!/usr/bin/env python3
"""Builds the engine and the benchmark program, then runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload capture --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) and is incremental. The run's database files live
in a directory under the build directory and are removed when it ends.
A traced run (--trace 1) writes its spans to
<build>/traces/<workload>-seed<seed>.jsonl. The program's last line of
standard output is the result; build output goes to standard error.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("capture", "recall", "fleet")


def sync_tree(path):
    """fsyncs every file under `path`.

    An fsync on ext4 also waits for other dirty data of the same journal
    transaction, so a build's unwritten object files would slow the
    first run's fsyncs. Flushing them first keeps that cost out of the
    measurement; on an up-to-date build nothing is dirty and this is
    cheap.
    """
    for folder, _, files in os.walk(path):
        for name in files:
            try:
                fd = os.open(os.path.join(folder, name), os.O_RDONLY)
            except OSError:
                continue
            try:
                os.fsync(fd)
            except OSError:
                pass
            finally:
                os.close(fd)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build = os.path.join(root, target, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))

    configure = ["cmake", "-S", bench_dir, "-B", build,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    for step in (configure, ["cmake", "--build", build, "-j", jobs]):
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed", file=sys.stderr)
            return 2
    sync_tree(build)

    # Compression stays at its default (off) whatever the caller set.
    env = dict(os.environ)
    env.pop("BP_COMPRESSION", None)
    run_dir = os.path.join(build, "run-%s-%d" % (args.workload, os.getpid()))
    command = [os.path.join(build, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--dir", run_dir]
    if args.trace:
        traces = os.path.join(build, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        result = subprocess.run(command, env=env, timeout=170)
        return result.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        # Commit the removal now rather than during the next run.
        fd = os.open(build, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


if __name__ == "__main__":
    sys.exit(main())
