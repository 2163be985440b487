#!/usr/bin/env python3
"""Campaign benchmark: the one command that prints every metric.

    python3 perfbench/run.py --workload country-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --write-references 0-20

Run from the repository root. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles ../src) into
.bench_build/perfbench. Each timed repetition is one campaign::run in its
own perfbench_campaign process, so peak memory is per repetition and never
leaks between repetitions or workloads.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a separate traced run with --trace 1.
Lines before it are a readable table and the host/build fingerprint. See
perfbench/README.md for the workloads, metrics and layer map.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-work")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "perfbench-results")
BINARY = os.path.join(BUILD_DIR, "perfbench_campaign")
REFERENCES = os.path.join(HERE, "references.json")

WORKLOADS = ("country-cold", "country-warm", "world-faults")
WARM = {"country-warm"}
# Site builds for setup_s, each in a fresh process as a user pays it; the
# median is reported. Country builds take milliseconds, a 1m world about a
# tenth of a second.
SETUP_PROCESSES = {"country-cold": 15, "country-warm": 15, "world-faults": 6}
MIN_REPS = 3
MAX_REPS = 400
STEP_TIMEOUT_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("campaign_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cache_mb", "MB"),
    ("ok_frac", "frac"),
)


class BenchError(Exception):
    """A step failed; no result may be printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no cendevice sources beside perfbench/ (expected src/CMakeLists.txt)")
        sys.exit(2)
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(ROOT, ".bench_build", "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                log("perfbench: build failed: " + " ".join(cmd))
                sys.exit(1)


def step(mode, workload, seed, *extra, tiny=False):
    """Run one perfbench_campaign step and return its JSON output."""
    cmd = [BINARY, mode, "--workload", workload, "--seed", str(seed), *extra]
    if tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=STEP_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} timed out after {STEP_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git(*args):
    try:
        proc = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def fingerprint(seed):
    """Host and build identity; results are comparable only between equal
    fingerprints (the sha aside) and only from optimised builds."""
    build_info = json.loads(subprocess.run([BINARY, "fingerprint"], capture_output=True,
                                           text=True, check=True).stdout)
    in_repo = git("rev-parse", "--show-toplevel") == ROOT
    status = git("status", "--porcelain", "--untracked-files=no") if in_repo else None
    return {
        "nproc": os.cpu_count(),
        "compiler": build_info["compiler"],
        "build_type": build_info["build_type"],
        "optimized": build_info["optimized"],
        "comparable": build_info["optimized"],
        "workers": build_info["workers"],
        "git_sha": git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": bool(status) if status is not None else None,
        "seed": seed,
    }


def stored_reference(workload, seed):
    try:
        with open(REFERENCES) as f:
            return json.load(f).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        return None


def measure(workload, seed, seconds, trace, tiny=False, min_reps=MIN_REPS, max_reps=MAX_REPS):
    """Set up, check and time one workload; returns the full result record."""
    os.makedirs(WORK_DIR, exist_ok=True)
    tag = f"{workload}-{seed}-{os.getpid()}{'-tiny' if tiny else ''}"
    cache = os.path.join(WORK_DIR, tag + ".jsonl")
    try:
        setup = [step("setup", workload, seed, tiny=tiny)["setup_s"]
                 for _ in range(SETUP_PROCESSES[workload])]

        # The reference output: stored for known seeds, otherwise an inline
        # threads = 0 run (for the warm workload that run is also the
        # cache prefill, which is harness preparation, not set-up).
        reference = None if tiny else stored_reference(workload, seed)
        reference_source = "stored"
        if workload in WARM or reference is None:
            inline = step("reference", workload, seed,
                          *(["--cache", cache] if workload in WARM else []), tiny=tiny)
            if reference is None:
                reference, reference_source = inline["hash"], "inline threads=0"

        reps = []
        t0 = time.monotonic()
        while len(reps) < max_reps and (len(reps) < min_reps or
                                        time.monotonic() - t0 < seconds):
            reps.append(step("run", workload, seed, "--cache", cache, tiny=tiny))

        traced = None
        spans = os.path.join(RESULTS_DIR, tag + ".spans.json")
        if trace:
            os.makedirs(RESULTS_DIR, exist_ok=True)
            traced = step("trace", workload, seed, "--cache", cache, "--spans", spans,
                          tiny=tiny)
    finally:
        for path in (cache, cache + ".replay"):
            if os.path.exists(path):
                os.remove(path)

    attempted = failed = 0
    for r in reps:
        attempted += r["tasks"]
        bad = r["failed"]
        if r["hash"] != reference or (workload in WARM and r["executed"] != 0):
            bad = r["tasks"]
        r["ok"] = bad == 0
        failed += bad

    def med(key):
        return statistics.median(r[key] for r in reps)

    e2e = {
        "setup_s": statistics.median(setup),
        "campaign_s": med("campaign_s"),
        "cpu_s": med("cpu_s"),
        "peak_rss_mb": med("peak_rss_mb"),
        "cache_mb": med("cache_bytes") / 1e6,
        "ok_frac": 1.0 - failed / attempted if attempted else 0.0,
    }
    samples = {
        "setup_s": setup,
        "campaign_s": [r["campaign_s"] for r in reps],
        "cpu_s": [r["cpu_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "cache_mb": [r["cache_bytes"] / 1e6 for r in reps],
        "ok_frac": [1.0 if r["ok"] else 0.0 for r in reps],
    }
    per_layer = None
    if traced is not None:
        per_layer = traced["metrics"]
        wall_s = per_layer["tracing.wall_ms"]["value"] / 1e3
        per_layer["tracing.overhead_frac"] = {
            "value": wall_s / e2e["campaign_s"] - 1.0, "unit": "frac"}
    return {
        "workload": workload,
        "seed": seed,
        "fingerprint": fingerprint(seed),
        "reference": reference,
        "reference_source": reference_source,
        "hashes": sorted({r["hash"] for r in reps}),
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": e2e,
        "samples": samples,
        "per_layer": per_layer,
        "spans": spans if trace else None,
    }


def report(result, trace):
    fp = result["fingerprint"]
    print(f"# perfbench {result['workload']} seed={result['seed']} "
          f"reference={result['reference_source']} fingerprint={json.dumps(fp, sort_keys=True)}")
    if not fp["comparable"]:
        print("# NOT COMPARABLE: the benchmark was built without optimisation")
    if trace:
        for name, m in result["per_layer"].items():
            print(f"#   {name:34s} {m['value']:>16.6g} {m['unit']}")
        metrics = result["per_layer"]
    else:
        units = dict(END_TO_END)
        for name, _ in END_TO_END:
            xs = result["samples"][name]
            print(f"#   {name:12s} median {result['end_to_end'][name]:>12.6g} {units[name]:5s}"
                  f" n={len(xs):<3d} min {min(xs):.6g} max {max(xs):.6g}")
        metrics = {name: {"value": result["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END}
    os.makedirs(RESULTS_DIR, exist_ok=True)
    out = os.path.join(RESULTS_DIR,
                       f"{result['workload']}-{result['seed']}-trace{int(trace)}.json")
    with open(out, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


def check_spans(path):
    """Every span but the one root has a parent that encloses it."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = {e["args"]["id"]: e["args"] for e in events}
    if len(spans) != len(events):
        return "duplicate span ids"
    roots = [s for s in spans.values() if s["parent"] == 0]
    if len(roots) != 1:
        return f"{len(roots)} roots"
    for e in events:
        s = e["args"]
        if s["end_ns"] < s["start_ns"]:
            return f"span {s['id']} ({e['name']}) ends before it starts"
        if s["parent"] == 0:
            continue
        p = spans.get(s["parent"])
        if p is None:
            return f"span {s['id']} ({e['name']}) has no parent {s['parent']}"
        if s["start_ns"] < p["start_ns"] or s["end_ns"] > p["end_ns"]:
            return f"span {s['id']} ({e['name']}) lies outside its parent {p['id']}"
    return None


def selftest():
    """Tiny capped variant of each workload, two repetitions plus a traced
    run: every metric with its unit, equal hashes, a well-formed span tree."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for workload in WORKLOADS:
        r = measure(workload, 1, 0, True, tiny=True, min_reps=2, max_reps=2)
        got_e2e = {name: unit for name, unit in END_TO_END}
        got_layer = {name: m["unit"] for name, m in r["per_layer"].items()}
        checks = [
            ("end-to-end metrics and units", got_e2e == want_e2e),
            ("per-layer metrics and units", got_layer == want_layer),
            ("values are finite numbers",
             all(isinstance(m["value"], (int, float)) for m in r["per_layer"].values())),
            ("both repetitions hash-equal the reference",
             len(r["samples"]["campaign_s"]) == 2 and r["hashes"] == [r["reference"]]),
            ("no failed task", r["correct"]),
        ]
        span_problem = check_spans(r["spans"])
        checks.append(("span tree well formed" + (f" ({span_problem})" if span_problem else ""),
                       span_problem is None))
        for what, ok in checks:
            print(f"{'PASS' if ok else 'FAIL'} {workload}: {what}")
            if not ok:
                problems.append(f"{workload}: {what}")
        missing = sorted(set(want_layer) - set(got_layer))
        extra = sorted(set(got_layer) - set(want_layer))
        if missing or extra:
            print(f"     missing {missing} extra {extra}")
    print("selftest " + ("passed" if not problems else f"FAILED ({len(problems)})"))
    return 0 if not problems else 1


def write_references(seeds):
    refs = {}
    if os.path.exists(REFERENCES):
        with open(REFERENCES) as f:
            refs = json.load(f)
    for workload in WORKLOADS:
        for seed in seeds:
            refs.setdefault(workload, {})[str(seed)] = step("reference", workload, seed)["hash"]
            log(f"reference {workload} seed {seed}")
    with open(REFERENCES, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--write-references", metavar="LO-HI", type=seed_range)
    args = ap.parse_args()
    if not (args.workload or args.selftest or args.write_references):
        ap.error("one of --workload, --selftest or --write-references is required")

    build()
    try:
        if args.selftest:
            return selftest()
        if args.write_references:
            write_references(args.write_references)
            return 0
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        log(f"perfbench: {exc}")
        return 1
    report(result, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
