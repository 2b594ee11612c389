#!/usr/bin/env python3
"""Build and run the Privagic benchmark.

    python3 perfbench/run.py --workload kv_1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Builds perfbench/ (and the repository libraries it links) into .bench_build/,
runs one workload, and prints as its last line one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The line before it records
the environment. --self-test checks that the output checks catch a wrong
answer on every workload. See perfbench/NOTES.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench" / "perfbench"
WORKLOADS = ("kv_1", "kv_2", "crawl", "compile")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170

END_TO_END = ("ops_per_s", "lat_p50_us", "lat_p99_us", "setup_s", "peak_rss_mib")
PER_LAYER = (
    "ir.parse_ms", "ir.insts", "sectype.check_ms", "sectype.specs",
    "partition.ms", "partition.chunks", "partition.out_insts",
    "analysis.lint_ms", "analysis.placement_ms",
    "interp.load_ms", "interp.instr_per_s", "interp.insts_per_op",
    "runtime.msgs_per_op", "runtime.msgs_per_flush", "runtime.parks_per_op",
    "runtime.preempts_per_op", "runtime.rtt_cross_ns", "runtime.rtt_same_ns",
    "sgx.rw_ns", "sgx.enclave_kib",
    "span.call_entry_us", "span.u_pre_us", "span.cross_in_us", "span.enclave_us",
    "span.cross_out_us", "span.call_exit_us", "span.put_rt_us",
    "trace.overhead_frac", "fail_frac",
)


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once, then lets the build tool bring the binary up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no Privagic sources under {ROOT / 'src'}")
    out = BUILD / "perfbench"
    tmp = BUILD / "tmp"  # keeps the compiler's temporary files in the checkout
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
               f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)


def run_binary(args):
    """Runs perfbench and returns its report (the last stdout line)."""
    proc = subprocess.run([str(BINARY), *args], stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("perfbench printed nothing")
    return json.loads(lines[-1])


def source_hash():
    """Hash of every source the binary is built from: count records are only
    compared between runs of the same code."""
    h = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def environment(report, workload):
    affinity = sorted(os.sched_getaffinity(0))
    try:
        aslr = Path("/proc/sys/kernel/randomize_va_space").read_text().strip()
    except OSError:
        aslr = "unknown"
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], text=True,
                                capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # not a git checkout; source_sha identifies the code
    return {
        "nproc": os.cpu_count(),
        "affinity_mask": hex(sum(1 << c for c in affinity)),
        "workload_threads": report.get("threads"),
        "aslr": aslr,
        "build_type": report.get("build_type"),
        "commit": commit,
        "source_sha": source_hash(),
        "workload": workload,
    }


def drift(env, workload, seed, counts):
    """Compares the deterministic counts with an earlier run of the same seed
    and code; returns the names that differ."""
    records = BUILD / "counts"
    records.mkdir(parents=True, exist_ok=True)
    path = records / f"{env['source_sha']}-{workload}-{seed}.json"
    if not path.is_file():
        path.write_text(json.dumps(counts, sort_keys=True))
        return []
    before = json.loads(path.read_text())
    return sorted(k for k in set(before) | set(counts) if before.get(k) != counts.get(k))


def bench(args):
    build()
    spans_dir = BUILD / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    cmd = ["--workload", args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(spans_dir / f"{args.workload}.csv")]
    report = run_binary(cmd)
    env = environment(report, args.workload)
    correct = bool(report["correct"])
    for problem in report.get("problems", []):
        log(f"problem: {problem}")
    drifted = drift(env, args.workload, args.seed, report.get("counts", {}))
    if drifted:
        log(f"deterministic counts drifted from an earlier run of seed {args.seed}: "
            + ", ".join(drifted))
        correct = False
    wanted = PER_LAYER if args.trace else END_TO_END
    missing = [m for m in wanted if m not in report["metrics"]]
    if missing:
        raise RuntimeError("perfbench did not report " + ", ".join(missing))
    if args.trace:
        (spans_dir / f"{args.workload}.env.json").write_text(json.dumps(env, indent=1))
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": correct,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {m: report["metrics"][m] for m in wanted},
    }))


def self_test():
    """Every workload must pass its checks as is, and fail them once the
    binary perturbs the expected values."""
    build()
    ok = True
    for w in WORKLOADS:
        for inject in (False, True):
            cmd = ["--workload", w, "--seed", "7", "--seconds", "1"]
            report = run_binary(cmd + (["--inject-wrong"] if inject else []))
            frac = report["metrics"]["fail_frac"]["value"]
            good = (frac > 0 and not report["correct"]) if inject else (
                frac == 0 and report["correct"])
            ok &= good
            print(f"{'PASS' if good else 'FAIL'} {w:8s} inject_wrong={int(inject)} "
                  f"fail_frac={frac:.4g} attempted={report['attempted']}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    start = time.monotonic()
    try:
        if args.self_test:
            return 0 if self_test() else 1
        if args.workload is None:
            parser.error("--workload is required")
        bench(args)
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log(f"failed after {time.monotonic() - start:.1f} s: {e}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
