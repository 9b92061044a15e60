#!/usr/bin/env python3
"""Compare two sets of benchmark result records.

    python3 benchmark/compare.py --base A1.json A2.json ... --new B1.json ...

Arguments may also be directories of records (run.py --record-dir).
--smoke records are ignored. For every (workload, end-to-end metric)
pair of the untraced records it prints each set's median and quartiles
and checks that the medians agree within the metric's bound
(BENCHMARK.json, plus the record-only metrics in config.json). A pair
whose run-to-run spread (quartile distance over median) exceeds the
bound prints "unresolved" unless every new run beats every base run.
Traced records print their per-layer medians side by side, with no
verdict. Exits 1 when any resolved pair disagrees, or when a
workload's runs differ in request count within or between the sets.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def load(paths):
    """Result records under `paths`. --smoke records are left out: they
    run at a twentieth of the scale with one set-up."""
    records = []
    for p in map(Path, paths):
        files = sorted(p.glob("*.json")) if p.is_dir() else [p]
        records += [json.loads(f.read_text()) for f in files]
    return [r for r in records
            if "workload" in r and "context" in r and not r["smoke"]]


def sizes(records, label):
    """{workload: request count}; exits when one workload's records were
    run at different sizes, since their metrics do not pool."""
    out = {}
    for r in records:
        out.setdefault(r["workload"], set()).add(r["requests"])
    for w, n in out.items():
        if len(n) > 1:
            sys.exit(f"compare.py: {label} holds {w} runs of "
                     f"{sorted(n)} requests; give one size per workload")
    return {w: n.pop() for w, n in out.items()}


def group(records, section):
    """{(workload, metric): [values]} of one section of the records."""
    out = {}
    for r in records:
        for k, v in (r.get(section) or {}).items():
            if v is not None:
                out.setdefault((r["workload"], k), []).append(v)
    return out


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def verdict(spec, base, new):
    """(signed change, verdict): relative to the base median, or absolute
    for metrics with an absolute bound or a zero base."""
    (bm, b1, b3), (nm, n1, n3) = summary(base), summary(new)
    lower = spec["better"] == "lower"
    if "abs_bound" in spec or bm == 0:
        delta = nm - bm
        if abs(delta) <= spec.get("abs_bound", 0):
            return delta, "agree"
        return delta, "worse" if (delta > 0) == lower else "better"
    delta = (nm - bm) / bm
    beats = (max(new) < min(base)) if lower else (min(new) > max(base))
    spread = max((b3 - b1) / bm, (n3 - n1) / nm if nm else 0.0)
    if spread > spec["bound"]:
        return delta, "better" if beats else "unresolved"
    if abs(delta) <= spec["bound"]:
        return delta, "agree"
    return delta, "worse" if (delta > 0) == lower else "better"


def fmt(stats):
    med, q1, q3 = stats
    return f"{med:10.4g} [{q1:.4g}, {q3:.4g}]"


def describe(records):
    shas = sorted({r["context"]["git_sha"][:12] +
                   ("+dirty" if r["context"]["git_dirty"] else "")
                   for r in records})
    cpus = sorted({r["context"]["cpu_model"] for r in records})
    return f"{len(records)} records, sha {', '.join(shas)}, cpu {', '.join(cpus)}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args()

    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    cfg = json.loads((BENCH / "config.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"]}
    specs.update(cfg["record_only_metrics"])
    base, new = load(args.base), load(args.new)
    if not base or not new:
        sys.exit("compare.py: no full-scale records in "
                 + ("--base" if not base else "--new"))
    print(f"base: {describe(base)}\nnew:  {describe(new)}\n")

    # End-to-end metrics come from untraced runs only, per-layer ones
    # from traced runs, and each workload's runs must share one size.
    plain = [[r for r in s if not r["trace"]] for s in (base, new)]
    traced = [[r for r in s if r["trace"]] for s in (base, new)]
    for kind, (b, n) in (("untraced", plain), ("traced", traced)):
        bs, ns = sizes(b, f"--base ({kind})"), sizes(n, f"--new ({kind})")
        for w in sorted(set(bs) & set(ns)):
            if bs[w] != ns[w]:
                sys.exit(f"compare.py: {kind} {w} ran {bs[w]} requests in "
                         f"--base but {ns[w]} in --new; compare runs of "
                         "one size")

    bad = 0
    be, ne = group(plain[0], "e2e"), group(plain[1], "e2e")
    print(f"{'workload':<15} {'metric':<14} {'unit':<9} "
          f"{'base median [q1, q3]':<30} {'new median [q1, q3]':<30} "
          f"{'delta':>8} {'bound':>6}  verdict")
    for key in sorted(set(be) & set(ne)):
        spec = specs.get(key[1])
        if spec is None:
            continue
        delta, v = verdict(spec, be[key], ne[key])
        bad += v in ("worse", "better")
        bound = spec.get("bound", spec.get("abs_bound"))
        print(f"{key[0]:<15} {key[1]:<14} {spec['unit']:<9} "
              f"{fmt(summary(be[key])):<30} {fmt(summary(ne[key])):<30} "
              f"{delta:>+8.3f} {bound:>6}  {v}")

    bl, nl = group(traced[0], "layer"), group(traced[1], "layer")
    shared = sorted(set(bl) & set(nl))
    if shared:
        print("\nper-layer medians (no bound):")
        for key in shared:
            print(f"{key[0]:<15} {key[1]:<36} "
                  f"{fmt(summary(bl[key])):<30} {fmt(summary(nl[key])):<30}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
