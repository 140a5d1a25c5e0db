#!/usr/bin/env python3
"""Build and run the GeoProof benchmark from the root of a source checkout.

    python3 geobench/run.py --workload fleet_audit --seed 1 --seconds 20 --trace 0

Builds the repository's libraries, geoproofd, geoproof-vantage and the
geobench binary as an optimised (Release) CMake build under .bench_build/
(or $CARGO_TARGET_DIR when set), runs its self-tests, then runs one
workload. The last line of stdout is the JSON result. Build output
goes to stderr. Exits non-zero, without a result line, when the checkout
holds no GeoProof sources or the build fails; exits 1 when any op or
correctness gate failed; exits 3, without a result line, when the run
outlives its timeout.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet_audit", "registry_sweep", "track_sweep")
# A run may take this long beyond its measured seconds (set-ups, the traced
# run's secondary replays, fleet spawn and teardown), plus as much again
# as it measures, before it is killed.
RUN_ALLOWANCE_S = 90


def fail(message):
    print(f"geobench: {message}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return sha.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "apps", "geobench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as fh:
                digest.update(fh.read())
    return "src-" + digest.hexdigest()[:16]


def build(build_root):
    cmake_dir = os.path.join(build_root, "cmake")
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs, "--target",
                  "geobench", "geoproofd", "geoproof-vantage"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))
    bins = {
        "geobench": os.path.join(cmake_dir, "geobench"),
        "apps": os.path.join(cmake_dir, "geoproof", "apps"),
    }
    for path in (bins["geobench"], os.path.join(bins["apps"], "geoproofd"),
                 os.path.join(bins["apps"], "geoproof-vantage")):
        if not os.access(path, os.X_OK):
            fail(f"build produced no {path}")
    return bins


def run_group(argv, timeout):
    """Run argv in its own process group; whatever it leaves behind is
    killed before returning."""
    proc = subprocess.Popen(argv, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print("geobench: run timed out", file=sys.stderr)
        return 3
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    for needed in ("CMakeLists.txt", "src", "apps"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no GeoProof sources here ({needed} missing under {ROOT})")

    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    bins = build(build_root)
    out_dir = os.path.join(build_root, "runs",
                           f"{args.workload}-{args.seed}-t{args.trace}")
    os.makedirs(out_dir, exist_ok=True)

    if run_group([bins["geobench"], "--selftest"], 60) != 0:
        fail("benchmark self-tests failed")
    sys.stdout.flush()
    rc = run_group([bins["geobench"],
                    "--workload", args.workload,
                    "--seed", str(args.seed),
                    "--seconds", repr(args.seconds),
                    "--trace", str(args.trace),
                    "--bin-dir", bins["apps"],
                    "--out-dir", out_dir,
                    "--git-sha", source_id()],
                   RUN_ALLOWANCE_S + 2 * args.seconds)
    sys.exit(rc)


if __name__ == "__main__":
    main()
