#!/usr/bin/env python3
"""Build and run the CRONUS repository benchmark.

Measure one workload (the flags after the script name are fixed in
BENCHMARK.json; the rest are chosen per run):

    python3 perfbench/run.py --gomaxprocs 2 --warmup 1 --p99-limit-us 250 \
        --workload serve-steady --seed 1 --seconds 20 --trace 0

Rebuild the coverage map (which program packages each workload executes):

    python3 perfbench/run.py --coverage-map

The script builds the Go harness in this directory from the checkout's own
source, keeps every build and cache file under .bench_build/ at the checkout
root, and relays the harness's output. The harness prints its result as the
last line of standard output.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ["serve-steady", "serve-fleet", "serve-classic", "paper-eval"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def go_env():
    """Environment that keeps the toolchain offline and inside the checkout."""
    env = dict(os.environ)
    for key in ("GOFLAGS", "GOWORK", "GOCOVERDIR"):
        env.pop(key, None)
    env.update(
        GOCACHE=str(BUILD / "gocache"),
        GOMODCACHE=str(BUILD / "gomod"),
        GOPATH=str(BUILD / "gopath"),
        GOTMPDIR=str(BUILD / "tmp"),
        XDG_CONFIG_HOME=str(BUILD / "config"),
        XDG_CACHE_HOME=str(BUILD / "cache"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOENV="off",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    for d in ("tmp", "config", "cache"):
        (BUILD / d).mkdir(parents=True, exist_ok=True)
    return env


def source_digest():
    """Digest of the program's Go sources, the revision stamp of a result
    (the checkout the benchmark runs in need not be a git repository)."""
    files = []
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames if not d.startswith(".")]
        files += [Path(dirpath, f) for f in filenames if f.endswith(".go") or f in ("go.mod", "go.sum")]
    h = hashlib.sha256()
    for path in sorted(files):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return "src-sha256:" + h.hexdigest()[:16]


def require_toolchain_and_source():
    if shutil.which("go") is None:
        fail("the go toolchain is not on PATH")
    if not (ROOT / "go.mod").is_file():
        fail(f"no program source at {ROOT} (go.mod missing)")


def build(env, out, extra=()):
    cmd = ["go", "build", "-trimpath", *extra, "-o", str(out), "."]
    r = subprocess.run(cmd, cwd=HERE, env=env, capture_output=True, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        fail("build failed")


def run_harness(binary, args, env):
    try:
        r = subprocess.run([str(binary), *args], env=env, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness timed out after {RUN_TIMEOUT_S}s")
    return r


def measure(opts):
    require_toolchain_and_source()
    env = go_env()
    binary = BUILD / "perfbench"
    build(env, binary)
    env["PERFBENCH_SOURCE"] = source_digest()
    args = [
        "-workload", opts.workload, "-seed", str(opts.seed), "-seconds", str(opts.seconds),
        "-trace", str(opts.trace), "-gomaxprocs", str(opts.gomaxprocs),
        f"-warmup={'true' if opts.warmup else 'false'}", "-p99-limit-us", str(opts.p99_limit_us),
    ]
    r = run_harness(binary, args, env)
    sys.stderr.write(r.stderr)
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    return r.returncode


COVER_PCT = re.compile(r"(\S+)\s+coverage:\s+([0-9.]+)% of statements")


def coverage_map():
    """Run every workload briefly under a coverage build and record which
    program packages it executes; writes perfbench/coverage.json."""
    env = go_env()
    binary = BUILD / "perfbench-cover"
    build(env, binary, ("-cover", "-coverpkg=cronus/..."))
    r = subprocess.run(["go", "list", "./..."], cwd=ROOT, env=env, capture_output=True, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        fail("go list failed")
    packages = sorted(r.stdout.split())
    per_workload = {}
    no_statements = set()
    for wl in WORKLOADS:
        cover = BUILD / "cover" / wl
        shutil.rmtree(cover, ignore_errors=True)
        cover.mkdir(parents=True)
        run_env = dict(env, GOCOVERDIR=str(cover))
        for trace in ("0", "1"):
            r = run_harness(binary, ["-workload", wl, "-seconds", "0.5", "-trace", trace], run_env)
            if r.returncode != 0:
                sys.stderr.write(r.stdout[-2000:] + r.stderr)
                fail(f"coverage run of {wl} failed")
        r = subprocess.run(["go", "tool", "covdata", "percent", "-i", str(cover)],
                           cwd=HERE, env=env, capture_output=True, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stderr)
            fail("go tool covdata failed")
        # A package without statements is listed with no figure of its own.
        measured = {m.group(1): float(m.group(2)) for m in COVER_PCT.finditer(r.stdout)}
        no_statements |= {p for p in r.stdout.split() if p in packages and p not in measured}
        per_workload[wl] = {p: v for p, v in sorted(measured.items()) if p in packages and v > 0}
    executed = set().union(*per_workload.values()) | no_statements
    result = {
        "how": "python3 perfbench/run.py --coverage-map (go build -cover -coverpkg=cronus/..., "
               "each workload run with -trace 0 and -trace 1 for 0.5 s, go tool covdata percent)",
        "statement_coverage_pct": per_workload,
        "executed_by_no_workload": [p for p in packages if p not in executed],
        "without_statements": sorted(no_statements),
    }
    out = HERE / "coverage.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    for wl in WORKLOADS:
        print(f"{wl}: {len(per_workload[wl])} packages executed")
    print(f"executed by no workload: {len(result['executed_by_no_workload'])} of {len(packages)} packages")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--gomaxprocs", type=int, default=2)
    ap.add_argument("--warmup", type=int, choices=(0, 1), default=1)
    ap.add_argument("--p99-limit-us", type=float, default=250)
    ap.add_argument("--coverage-map", action="store_true")
    opts = ap.parse_args()
    if opts.coverage_map:
        return coverage_map()
    if opts.workload is None:
        ap.error("--workload is required")
    return measure(opts)


if __name__ == "__main__":
    sys.exit(main())
