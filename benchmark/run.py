#!/usr/bin/env python3
"""Build and run the M-ANT serving benchmark.

    python3 benchmark/run.py                        # all four workloads
    python3 benchmark/run.py --workload chat --seed 3
    python3 benchmark/run.py --trace 1              # per-layer metrics
    python3 benchmark/run.py --smoke                # ~1/20 scale check

Builds build-bench/ from source (a Release build of libmant plus
mant_serving_bench from benchmark/src), runs each workload in its own
process with
MANT_THREADS pinned, checks the outputs (recorded FNV-1a checksum and a
serial single-stream oracle), prints every metric by name with its unit
and sample count, writes a result record with the machine context, and
ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Exits non-zero when any check fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / "build-bench"
BINARY = BUILD / "mant_serving_bench"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("the library sources (CMakeLists.txt, src/) are not next to "
             "benchmark/, so there is nothing to build")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j",
                  str(os.cpu_count() or 1)])
    for cmd in steps:
        r = subprocess.run(cmd, capture_output=True, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout + r.stderr)
            fail("build failed: " + " ".join(cmd))


def read_first(path, default=""):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return default


def git(*args):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        r = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                           text=True, env=env)
    except OSError:
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def machine_context():
    cpu = "unknown"
    for line in read_first("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = []
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = read_first(idx / "level")
        kind = read_first(idx / "type")
        caches.append(f"L{level} {kind} {read_first(idx / 'size')}")
    sha = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain", "--untracked-files=no")
    src_lines = sum(
        len(p.read_bytes().splitlines())
        for p in (ROOT / "src").rglob("*") if p.suffix in (".h", ".cc"))
    return {
        "git_sha": sha or "unknown",
        "git_dirty": None if sha is None else bool(dirty),
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "caches": caches,
        "loadavg_start": [float(x) for x in
                          read_first("/proc/loadavg", "0 0 0").split()[:3]],
        "src_lines": src_lines,
    }


def record_path(record_dir, stem):
    """The first unused <stem>-<n>.json, so repeated runs of one
    workload and seed never overwrite each other."""
    n = 1
    while (record_dir / f"{stem}-{n}.json").exists():
        n += 1
    return record_dir / f"{stem}-{n}.json"


def run_workload(name, spec, seed, seconds, trace, smoke, cfg, record):
    # Every field of the workload's entry goes to mant_serving_bench as
    # the flag of the same name; a [lo, hi] pair becomes LO:HI.
    cmd = [str(BINARY), "--workload", name]
    for key, value in spec.items():
        if isinstance(value, list):
            value = "{}:{}".format(*value)
        cmd += ["--" + key.replace("_", "-"), str(value)]
    cmd += [
        "--seconds", repr(seconds), "--seed", str(seed),
        "--trace", str(int(trace)),
        "--out-prefix", str(record.with_suffix("")),
        "--setup-reps", str(1 if smoke else cfg["setup_reps"]),
        "--warmup", str(cfg["warmup_requests"]),
        "--oracle", str(cfg["oracle_requests"]),
    ]
    env = dict(os.environ, MANT_THREADS=str(cfg["threads"]))
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, env=env,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{name}: no result within {RUN_TIMEOUT_S} s")
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if not lines:
        fail(f"{name}: mant_serving_bench exited {r.returncode} without "
             "a result")
    result = json.loads(lines[-1])
    key = f"{name}/{result['requests']}/{seed}"
    want = cfg["checksums"].get(key)
    if want is None:
        print(f"run.py: WARNING: config.json records no checksum for {key}; "
              f"only the {result['oracle_checked']}-request serial oracle "
              "checks this run's outputs", file=sys.stderr)
    result["checksum_key"] = key
    result["checksum_expected"] = want
    result["checksum_gated"] = want is not None
    result["exit_code"] = r.returncode
    result["correct"] = (
        r.returncode == 0 and result["oracle_mismatches"] == 0
        and result["phases_agree"] and not result["engine_error"]
        and (want is None or want == result["checksum"]))
    return result


def fmt(v):
    return "null" if v is None else f"{v:.6g}"


def print_report(name, spec, res, bench):
    c, n = res["counts"], res["samples"]
    loop = spec["loop"]
    if loop == "open":
        loop = f"open loop at {spec['requests_per_s']} req/s"
    elif loop == "closed":
        loop = f"closed loop, {spec['clients']} client(s)"
    print(f"== {name}: {loop}, {res['requests']} requests, seed "
          f"{res['seed']}, {res['simd']}, MANT_THREADS={res['threads']} ==")
    e = res["e2e"]
    sample_note = {
        "setup_s": f"median of {n['setup']} set-ups",
        "tokens_per_s": f"{c['generated']} tokens",
        "ttft_p50_ms": f"n={n['ttft']} requests",
        "ttft_p90_ms": f"n={n['ttft']} requests",
        "itl_p50_ms": f"n={n['itl']} gaps",
        "itl_p99_ms": f"n={n['itl']} gaps",
        "peak_rss_mb": "VmHWM of the workload process",
    }
    if not res["trace"]:
        for m in bench["end_to_end"]:
            print(f"  {m['name']:<24} {fmt(e[m['name']]):>12} "
                  f"{m['unit']:<9} ({sample_note[m['name']]})")
        if "slo_met_frac" in e:
            slo = (f"TTFT <= {spec['ttft_limit_ms']} ms and own p90 gap "
                   f"<= {spec['itl_limit_ms']} ms")
        else:
            slo = "no SLO on this workload"
        print(f"  {'slo_met_frac':<24} {fmt(e.get('slo_met_frac')):>12} "
              f"{'fraction':<9} ({c['attempted']} attempted; {slo})")
        print(f"  {'failed_frac':<24} {fmt(e['failed_frac']):>12} "
              f"{'fraction':<9} ({c['attempted']} attempted)")
    else:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        for k, v in res["layer"].items():
            print(f"  {k:<34} {fmt(v):>12} {units.get(k, '')}")
        print(f"  spans: {res['spans']}")
    print(f"  requests: attempted {c['attempted']}, done {c['done']}, "
          f"failed {c['failed']}, expired {c['expired']}, "
          f"cancelled {c['cancelled']}")
    if spec["loop"] == "open":
        late = res["generator_late_ms"]
        print(f"  generator lateness: p50 {fmt(late['p50'])} ms, "
              f"max {fmt(late['max'])} ms")
    want = res["checksum_expected"]
    verdict = (f"NOT RECORDED for {res['checksum_key']}, so not checked"
               if want is None else
               "matches" if want == res["checksum"] else
               f"MISMATCH, recorded {want}")
    print(f"  checksum {res['checksum']} ({verdict}); oracle "
          f"{res['oracle_checked'] - res['oracle_mismatches']}/"
          f"{res['oracle_checked']} identical")
    if res["engine_error"]:
        print(f"  ENGINE ERROR: {res['engine_error']}")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    cfg = json.loads((BENCH / "config.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(cfg["workloads"]),
                    help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help=f"run at {cfg['smoke_scale']} of --seconds with "
                         "one set-up per run")
    ap.add_argument("--record-dir", type=Path, default=BUILD / "results",
                    help="where result records and span files go")
    args = ap.parse_args()

    build()
    args.record_dir.mkdir(parents=True, exist_ok=True)
    context = machine_context()
    seconds = args.seconds * (cfg["smoke_scale"] if args.smoke else 1.0)
    names = [args.workload] if args.workload else list(cfg["workloads"])
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    correct, attempted, failed, metrics = True, 0, 0, {}
    kind = ("trace" if args.trace else "e2e") + ("-smoke" if args.smoke
                                                 else "")
    for name in names:
        spec = cfg["workloads"][name]
        path = record_path(args.record_dir, f"{name}-seed{args.seed}-{kind}")
        res = run_workload(name, spec, args.seed, seconds, args.trace,
                           args.smoke, cfg, path)
        print_report(name, spec, res, bench)
        record = {"context": context, "seconds": seconds,
                  "smoke": args.smoke, "spec": spec, **res}
        path.write_text(json.dumps(record, indent=1) + "\n")
        print(f"  record: {path}")
        correct = correct and res["correct"]
        attempted += res["counts"]["attempted"]
        failed += res["counts"]["attempted"] - res["counts"]["done"]
        values = res["layer"] if args.trace else res["e2e"]
        for m in wanted:
            key = m["name"] if len(names) == 1 else f"{name}.{m['name']}"
            metrics[key] = {"value": values.get(m["name"]), "unit": m["unit"]}

    print(f"context: {json.dumps(context)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
