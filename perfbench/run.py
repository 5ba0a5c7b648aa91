#!/usr/bin/env python3
"""Build and run the fastbcnn serving benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <vgg_dense|vgg_skip|lenet_mix> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first call configures and builds the library and the benchmark
from source into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later calls rebuild incrementally.  Build
output goes to stderr, so the last line of stdout is the benchmark's
JSON result.  Traced runs (--trace 1) also write their spans to
<build dir>/spans-<workload>-<seed>.jsonl.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configure (once) and build both executables into `out`."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources under %s/src; run from "
                 "a full checkout" % ROOT)
    # Keep the compiler's temporary files inside the build directory.
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                        "perfbench_selftest", "-j", jobs],
                       check=True, stdout=sys.stderr, env=env)


def commit_id():
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if res.returncode == 0:
            return res.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    out = build_dir()
    try:
        build(out)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("perfbench: build failed: %s" % err)

    if args.self_test:
        return subprocess.run([os.path.join(out, "perfbench_selftest")]
                              ).returncode
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    cmd = [os.path.join(out, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", commit_id()]
    if args.trace == 1:
        cmd += ["--spans", os.path.join(
            out, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
