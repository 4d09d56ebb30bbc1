#!/usr/bin/env python3
"""Build and run the repository's benchmark.

    python3 perfbench/run.py --workload decode_2304|serve_mix|harq_rtx \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script builds the `perfbench` package
(its own Cargo workspace, depending on the crates under `crates/` by path)
into `$CARGO_TARGET_DIR` (default `.bench_build`), prints a provenance line
(rustc version, source revision, lines of code per crate), then runs the
benchmark binary with the given arguments. The binary's last output line,
one JSON object with `correct`, `attempted`, `failed` and `metrics`, is also
the last line this script prints. The exit code is the binary's; a failed
build, a missing source tree or a malformed result line exits non-zero
without a result. See `perfbench/README.md` for the workloads and metrics.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_revision():
    """The git commit when the checkout is a repository, else a digest of
    every source file the benchmark builds from."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=20,
        )
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    files = sorted(
        p
        for base in (ROOT / "crates", BENCH)
        for p in base.rglob("*")
        if p.is_file() and p.suffix in (".rs", ".toml", ".lock", ".py")
    )
    for extra in (ROOT / "Cargo.toml", ROOT / "Cargo.lock"):
        if extra.is_file():
            files.append(extra)
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def lines_of_code():
    """Non-blank lines of Rust source per crate (report-only)."""
    counts = {}
    for crate in sorted((ROOT / "crates").glob("*/")):
        sources = list((crate / "src").rglob("*.rs"))
        nested = [p for sub in crate.glob("*/src") for p in sub.rglob("*.rs")]
        files = sources or nested
        counts[crate.name] = sum(
            sum(1 for line in f.read_text(errors="replace").splitlines() if line.strip())
            for f in files
        )
    return counts


def rustc_version():
    try:
        out = subprocess.run(
            ["rustc", "--version"], capture_output=True, text=True, timeout=30
        )
        return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def check_result(line):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a positive integer")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"} or not isinstance(metric["value"], (int, float)):
            raise ValueError(f"metric {name} is malformed")


def main():
    if not (ROOT / "crates").is_dir():
        fail("the repository's crates/ directory is missing; nothing to benchmark")
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    env["CARGO_TARGET_DIR"] = str(target)
    build = [
        "cargo",
        "build",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        str(BENCH / "Cargo.toml"),
    ]
    try:
        built = subprocess.run(
            build, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if built.returncode != 0:
        fail(f"build failed with exit code {built.returncode}")

    provenance = {
        "rustc": rustc_version(),
        "revision": source_revision(),
        "loc_per_crate": lines_of_code(),
    }
    print("perfbench: provenance " + json.dumps(provenance), flush=True)

    binary = target / "release" / "perfbench"
    try:
        run = subprocess.run(
            [str(binary)] + sys.argv[1:],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode == 2:
        fail("bad arguments")
    try:
        check_result(lines[-1])
    except (ValueError, IndexError) as e:
        fail(f"malformed result line: {e}")
    print("\n".join(lines), flush=True)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
