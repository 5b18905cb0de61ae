#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one named workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
                             [--tiny] [--inject-bad-label]

Run from the root of a checkout. It builds the `perfbench` package (its
own cargo workspace, linking the repository crates by path) into
`$CARGO_TARGET_DIR` (default `.bench_build`), generates the workload's
snapshot files from the seed in a child process, runs the measured pass
in another, and removes the files. The last line of standard output is
the result object; the line before it is the full record. Exits nonzero,
without a result line, if the build or a run fails, and with the result
line but code 1 if an output check failed.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

# Engine threads: the reference machine has 2 cores (see README.md).
THREADS = "2"
GENERATE_TIMEOUT_S = 40
# A run measures for --seconds, plus set-ups, a traced pass's companion
# phases and the label checks.
RUN_OVERHEAD_S = 90


def source_digest(root):
    """SHA-256 prefix over the sources the benchmark builds from, so only
    like is compared with like when the checkout is not a git repository."""
    h = hashlib.sha256()
    files = [root / "Cargo.toml", root / "Cargo.lock"]
    for top in ("crates", "vendor", "src", "perfbench"):
        files += sorted(p for p in (root / top).rglob("*") if p.is_file())
    for path in files:
        if path.is_file():
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main():
    # On SIGTERM, unwind like an exception: subprocess.run kills and reaps
    # the running child, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--tiny", action="store_true", help="tiny graphs (smoke test)")
    ap.add_argument("--inject-bad-label", action="store_true",
                    help="corrupt one op's output; the run must fail")
    args = ap.parse_args()

    root = Path.cwd()
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=str(target), MPX_THREADS=THREADS)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
        env=env, stdout=sys.stderr, timeout=840)
    if build.returncode != 0:
        sys.exit("error: building perfbench failed")
    binary = target / "release" / "perfbench"
    if not binary.is_absolute():
        binary = root / binary

    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", str(work)]
    if args.tiny:
        common.append("--tiny")
    try:
        gen = subprocess.run([str(binary), "generate", *common], env=env,
                             stdout=sys.stderr, timeout=GENERATE_TIMEOUT_S)
        if gen.returncode != 0:
            sys.exit("error: generating the workload's snapshots failed")
        cmd = [str(binary), "run", *common, "--seconds", str(args.seconds),
               "--trace", args.trace, "--rev", "src:" + source_digest(root)]
        if args.inject_bad_label:
            cmd.append("--inject-bad-label")
        out = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=args.seconds + RUN_OVERHEAD_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    lines = out.stdout.strip().splitlines()
    if out.returncode not in (0, 1) or len(lines) < 2:
        sys.stderr.write(out.stdout)
        sys.exit(f"error: perfbench run exited with code {out.returncode}")
    print(lines[-2])
    print(lines[-1], flush=True)
    sys.exit(out.returncode)


if __name__ == "__main__":
    main()
