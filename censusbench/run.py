#!/usr/bin/env python3
"""Census benchmark: wall-clock census, DNSRoute++ and set-up time.

Builds the odns library and the censusbench measurement binary from source (Release,
into .bench_build/censusbench at the checkout root), then starts one
censusbench process per sample until --seconds have passed, checks every
sample's outputs, and prints the result as one JSON object on the last
line of stdout.

    python3 censusbench/run.py --workload paper_census --seed 2021 \
        --seconds 55 --trace 0

--trace 0 reports the end-to-end metrics from untraced samples.
--trace 1 alternates untraced and traced samples and reports the
per-layer metrics of the traced ones, plus the tracing overhead. See
README.md for what each workload and metric is for.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "censusbench")
BINARY = os.path.join(BUILD_DIR, "censusbench")

WORKLOADS = ("paper_census", "internet_census")
# Census fingerprints at the default seed (classify::census_fingerprint).
PINNED_HASH = {
    "paper_census": "1f0662ba01565099",
    "internet_census": "2bf0b217e878fb88",
}
DEFAULT_SEED = 2021
FAULT_FREE = ("paper_census",)
WITH_DNSROUTE = ("paper_census",)
# Table 1 of the paper: shares of RR / RF / TF among ODNS components.
PAPER_TABLE1 = {"rr": 0.02, "rf": 0.72, "tf": 0.26}

END_TO_END = {
    "census_s": "s",
    "total_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "topo.build_s": "s",
    "registry.derive_s": "s",
    "scan.start_s": "s",
    "scan.run_s": "s",
    "scan.correlate_s": "s",
    "classify.classify_s": "s",
    "classify.analyze_s": "s",
    "census.self_s": "s",
    "scan.probes_sent": "count",
    "scan.probes_retried": "count",
    "scan.responses_duplicate": "count",
    "scan.responses_corrupt": "count",
    "scan.responses_late": "count",
    "scan.peak_pending_probes": "count",
    "scan.flushes": "count",
    "scan.unanswered_share": "share",
    "netsim.packets_sent": "count",
    "netsim.host_ns_per_packet": "ns",
    "netsim.route_cache_hits": "count",
    "netsim.route_cache_misses": "count",
    "netsim.route_cache_hit_ratio": "share",
    "netsim.shard_busy_max_s": "s",
    "netsim.shard_busy_sum_s": "s",
    "netsim.sync_s": "s",
    "netsim.shard_imbalance": "ratio",
    "netsim.mailbox_msgs": "count",
    "netsim.mailbox_overflows": "count",
    "netsim.fault_dropped_loss": "count",
    "netsim.fault_dropped_outage": "count",
    "netsim.fault_jittered": "count",
    "netsim.fault_reordered": "count",
    "netsim.fault_duplicated": "count",
    "netsim.fault_corrupted": "count",
    "dnsroute.trace_s": "s",
    "dnsroute.analyze_s": "s",
    "dnsroute.packets_sent": "count",
    "dnsroute.incomplete_share": "share",
    "classify.rr_share": "share",
    "classify.rf_share": "share",
    "classify.tf_share": "share",
    "trace.census_s": "s",
    "trace.overhead_s": "s",
}

# A run must end within this many seconds of measuring; a sample still
# running then is killed and counted as failed.
RUN_LIMIT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the Release measurement binary; False on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            # Leave no half-configured tree behind for the next run.
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    jobs = str(os.cpu_count() or 1)
    done = subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode == 0 and os.path.exists(BINARY)


def cmake_build_type():
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1].strip()
    return ""


def source_revision():
    """The git commit when run inside a clone; else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "censusbench", "CMakeLists.txt"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for path in paths:
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def run_child(workload, seed, traced, index, timeout):
    """One census process; returns (sample dict or None, problem or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed)]
    if traced:
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        spans = os.path.join(trace_dir, f"{workload}-seed{seed}-{index}.json")
        cmd += ["--mode", "traced", "--spans", spans]
    else:
        cmd += ["--mode", "plain"]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"sample {index} timed out after {timeout:.0f} s"
    if done.stderr:
        log(done.stderr.rstrip())
    if done.returncode != 0:
        return None, f"sample {index} exited with {done.returncode}"
    try:
        sample = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None, f"sample {index} printed no result"
    return sample, None


def check_sample(workload, seed, sample):
    """Output checks that hold for one sample on any seed."""
    problems = []
    classes = sum(sample[k] for k in ("rr", "rf", "tf", "invalid",
                                      "unresponsive"))
    if classes != sample["targets"]:
        problems.append(f"class counts sum to {classes}, "
                        f"{sample['targets']} targets probed")
    if workload in FAULT_FREE and sample["coverage"] != 1.0:
        problems.append(f"coverage {sample['coverage']} on a fault-free world")
    if not 0.0 < sample["coverage"] <= 1.0:
        problems.append(f"coverage {sample['coverage']} out of range")
    if "report_coverage" in sample and \
            sample["report_coverage"] != sample["coverage"]:
        problems.append("DegradationReport coverage disagrees with the census")
    if workload in WITH_DNSROUTE:
        if not sample["paths"] == sample["tf_targets"] == sample["tf"]:
            problems.append(f"{sample['paths']} DNSRoute++ paths for "
                            f"{sample['tf']} transparent forwarders")
        if sample["tf"] == 0:
            problems.append("no transparent forwarders to trace")
    if sample.get("build_type") != "Release":
        problems.append(f"sample built as {sample.get('build_type')!r}")
    if sample["mode"] == "traced" and not sample.get("spans_written"):
        problems.append("spans were not written")
    if seed == DEFAULT_SEED and sample["census_hash"] != PINNED_HASH[workload]:
        problems.append(f"census_hash {sample['census_hash']} != pinned "
                        f"{PINNED_HASH[workload]}")
    return problems


def end_to_end_metrics(plain):
    median = statistics.median
    return {
        "census_s": median([s["census_s"] for s in plain]),
        "total_s": median([s["census_s"] + s["dnsroute_s"] for s in plain]),
        "setup_s": median([v for s in plain for v in s["setup_s"]]),
        "peak_rss_mb": median([s["peak_rss_mb"] for s in plain]),
    }


def per_layer_metrics(plain, traced):
    median = statistics.median
    names = traced[0]["layers"].keys()
    out = {n: median([s["layers"][n] for s in traced]) for n in names}
    first = traced[0]
    probed = first["targets"]
    odns = first["rr"] + first["rf"] + first["tf"]
    out["scan.unanswered_share"] = first["unresponsive"] / probed
    out["dnsroute.incomplete_share"] = (
        first["paths_incomplete"] / first["paths"] if first["paths"] else 0.0)
    for k in ("rr", "rf", "tf"):
        out[f"classify.{k}_share"] = first[k] / odns if odns else 0.0
    out["trace.census_s"] = median([s["census_s"] for s in traced])
    out["trace.overhead_s"] = out["trace.census_s"] - median(
        [s["census_s"] for s in plain])
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        log("censusbench: build failed")
        return 1
    build_type = cmake_build_type()
    if build_type != "Release":
        log(f"censusbench: build tree is {build_type!r}, not Release; "
            "refusing to measure")
        return 2

    env = {
        "nproc": os.cpu_count(),
        "loadavg_before": list(os.getloadavg()),
        "build_type": build_type,
        "revision": source_revision(),
    }

    plain, traced, problems = [], [], []
    attempted = failed = 0
    longest = 0.0
    start = time.monotonic()
    while True:
        # A sample is started only if it should end within --seconds;
        # at least one untraced (and with --trace 1, one traced) sample
        # is always taken.
        elapsed = time.monotonic() - start
        if plain and (traced or not args.trace) and \
                elapsed + longest > args.seconds:
            break
        # With --trace 1, samples alternate untraced / traced so both see
        # the same machine conditions.
        want_traced = bool(args.trace) and len(traced) < len(plain)
        attempted += 1
        sample, problem = run_child(args.workload, args.seed, want_traced,
                                    attempted, RUN_LIMIT_S - elapsed)
        longest = max(longest, time.monotonic() - start - elapsed)
        sample_problems = [problem] if problem else check_sample(
            args.workload, args.seed, sample)
        if sample_problems:
            failed += 1
            problems += sample_problems
            if sample is None:
                break
        (traced if want_traced else plain).append(sample)
    measured_s = time.monotonic() - start

    samples = plain + traced
    hashes = sorted({s["census_hash"] for s in samples})
    if len(hashes) > 1:
        problems.append("census_hash differs between samples "
                        "(traced vs untraced or run to run): "
                        + ", ".join(hashes))
    env["loadavg_after"] = list(os.getloadavg())
    if samples:
        env["compiler"] = samples[0]["compiler"]

    correct = not problems and bool(plain) and (not args.trace or
                                                bool(traced))
    if not correct and failed == 0:
        # A run-level check (hashes disagree between samples) failed.
        failed = 1
    # Metrics are reported whenever the samples allow, even when a check
    # failed; "correct" and the exit code carry the verdict.
    if args.trace and plain and traced:
        values, units = per_layer_metrics(plain, traced), PER_LAYER
    elif not args.trace and plain:
        values, units = end_to_end_metrics(plain), END_TO_END
    else:
        values, units = {}, {}
    metrics = {n: {"value": values[n], "unit": u} for n, u in units.items()}

    first = samples[0] if samples else {}
    odns = sum(first.get(k, 0) for k in ("rr", "rf", "tf"))
    table1 = {k: {"measured": first[k] / odns, "paper": PAPER_TABLE1[k]}
              for k in ("rr", "rf", "tf")} if odns else {}

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "measured_s": measured_s, "env": env,
        "census_hash": hashes, "table1_shares": table1,
        "problems": problems, "samples": samples, "metrics": metrics,
    }
    results_dir = os.path.join(BUILD_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(plain)} untraced + {len(traced)} traced samples in "
          f"{measured_s:.1f} s")
    print("environment: " + json.dumps(env))
    if first:
        print(f"world: {first['hosts']} hosts, {first['ases']} ASes, "
              f"census_hash {first['census_hash']}, "
              f"coverage {first['coverage']:.4f}")
    for k, v in table1.items():
        print(f"Table 1 {k.upper()} share: {v['measured']:.3f} "
              f"(paper {v['paper']:.2f})")
    for p in problems:
        print("CHECK FAILED: " + p)
    for n, m in metrics.items():
        print(f"{n} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
