#!/usr/bin/env python3
"""Parse `go test -bench` output into BENCH_*.json and gate regressions.

Usage:
  benchjson.py parse OUT.json FILE [FILE...]
      Parse benchmark text output (as produced by `go test -bench ...
      -benchmem | tee file`) into a JSON report: one entry per benchmark
      with every reported metric (ns/op, B/op, allocs/op, and custom
      metrics such as cycles/sec, allocs/cycle, execs). Repeated samples
      of the same benchmark (from `-count=N`) are aggregated per metric
      by best case — min for /op costs, max for /sec rates, median
      otherwise. Interference on a shared runner is one-sided (load only
      ever slows a sample down), so the best case is the robust
      estimator of the code's true speed; gates compare those, not
      single noisy samples.

  benchjson.py check-telemetry NEW.json BASELINE.json
      Gate the disabled-telemetry overhead: for every BenchmarkEnumerate
      .../por and BenchmarkCheckProgram/.../streaming present in both
      files, compute the ns/op ratio — normalized by the
      median drift of the reference benchmarks the instrumentation does
      not touch, to factor out machine speed. The MEDIAN regression over
      that gated set must stay within 2% (single-bench ns/op carries a
      ~±5% alignment/neighbor-load noise floor that a median over seven
      hot-path benchmarks cancels), and no individual benchmark may
      regress more than 10%. The "+tel" variants (instrumentation
      enabled) are reported informationally against their plain
      counterparts in NEW.

  benchjson.py check NEW.json BASELINE.json
      Fail (exit 1) when NEW regresses against BASELINE:
        * cycles/sec: each benchmark's throughput is normalized by the
          run's own reference benchmark (BenchmarkSystemRun/H/noskip) to
          factor out raw machine speed, then compared: a normalized drop
          of more than 10% fails.
        * idle-heavy skip/noskip speedup must stay >= 2x (the event-driven
          skipping acceptance floor; machine-independent).
        * allocs/cycle on the idle-heavy skip variant must stay <= 0.05
          (the zero-allocation steady-state floor; machine-independent —
          the busy H variant is excluded because its short runs are
          dominated by one-time pool warm-up, not steady state).
      Race-classification gates (applied when the relation/analysis
      benchmarks are present in NEW; all machine-independent ratios):
        * BenchmarkAnalyze/<prog>/arena must stay at <= 2 allocs/op and
          the fresh/arena allocs ratio must stay >= 10x (the arena floor).
        * BenchmarkTransClosure and BenchmarkCompose bitset kernels must
          stay >= 4x faster than the []bool reference at every size.
      Solver gates (applied when BenchmarkSolve is present in NEW;
      machine-independent ratios within one run):
        * BenchmarkSolve/<prog>/solve must be >= 10x faster than the
          sibling /enumerate variant wherever both ran (the
          constraint-solving backend's acceptance floor on
          contention-dominated programs).
"""

import json
import re
import sys

REFERENCE = "BenchmarkSystemRun/H/noskip"
SPEEDUP_NUM = "BenchmarkSystemRun/idle-heavy/skip"
SPEEDUP_DEN = "BenchmarkSystemRun/idle-heavy/noskip"
TOLERANCE = 0.10
MIN_SPEEDUP = 2.0
MAX_ALLOCS_PER_CYCLE = 0.05

# Race-classification (bitset kernel) floors.
MAX_ARENA_ALLOCS = 2.0
MIN_ARENA_ALLOC_RATIO = 10.0
MIN_KERNEL_SPEEDUP = 4.0

# Constraint-solving backend floor: on contention-dominated programs the
# solver must beat full enumeration by at least this much. The measured
# gap is orders of magnitude larger (enumeration is super-exponential in
# thread count where the solver's memoized state space is polynomial),
# so 10x is a conservative machine-independent floor, not a target.
MIN_SOLVE_SPEEDUP = 10.0

# Disabled-telemetry overhead ceiling on the semantics-engine hot paths.
# The 2% ceiling applies to the MEDIAN normalized regression across the
# gated set: per-bench ns/op on a shared runner has a ~±5% noise floor
# even best-of-5 (code/alignment luck plus neighbor load), so individual
# benchmarks cannot support a 2% comparison, but the median over seven
# independent hot-path benchmarks cancels that noise. A per-bench
# backstop still catches any single benchmark blowing up outright.
TELEMETRY_TOLERANCE = 0.02
TELEMETRY_BENCH_CEILING = 0.10
# Benchmarks gated by check-telemetry (matched by prefix + suffix).
TELEMETRY_GATED = (
    ("BenchmarkEnumerate/", "/por"),
    ("BenchmarkCheckProgram/", "/streaming"),
)
# Normalization reference prefixes: benchmarks the checker
# instrumentation does not touch, so their drift between two runs is
# machine/toolchain speed, not telemetry cost. The scale is the median
# ns/op ratio over every reference present in both runs.
TELEMETRY_REFERENCES = (
    "BenchmarkAnalyze/",
    "BenchmarkTransClosure/",
    "BenchmarkCompose/",
    "BenchmarkSetOps/",
    "BenchmarkSystemRun/",
)

LINE = re.compile(r"^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$")
METRIC = re.compile(r"([\d.e+]+)\s+(\S+)")


def aggregate(unit, vals):
    """Collapse repeated samples of one metric: min for /op costs, max
    for /sec rates (one-sided interference noise), median otherwise."""
    if unit.endswith("/op"):
        return min(vals)
    if unit.endswith("/sec"):
        return max(vals)
    vals = sorted(vals)
    mid = len(vals) // 2
    if len(vals) % 2:
        return vals[mid]
    return (vals[mid - 1] + vals[mid]) / 2


def parse(paths):
    samples, order = {}, []
    for path in paths:
        for line in open(path):
            m = LINE.match(line.strip())
            if not m:
                continue
            name, iters, rest = m.group(1), int(m.group(2)), m.group(3)
            metrics = {}
            for val, unit in METRIC.findall(rest):
                try:
                    metrics[unit] = float(val)
                except ValueError:
                    continue
            if not metrics:
                continue
            if name not in samples:
                samples[name] = []
                order.append((name, iters))
            samples[name].append(metrics)
    out = []
    for name, iters in order:
        units = {u for run in samples[name] for u in run}
        merged = {
            u: aggregate(u, [run[u] for run in samples[name] if u in run])
            for u in sorted(units)
        }
        out.append({"name": name, "iterations": iters, "metrics": merged})
    return out


def by_name(report):
    return {b["name"]: b["metrics"] for b in report}


def check(new, base):
    newm, basem = by_name(new), by_name(base)
    failures = []

    def cps(table, name):
        return table.get(name, {}).get("cycles/sec")

    ref_new, ref_base = cps(newm, REFERENCE), cps(basem, REFERENCE)
    for name, metrics in basem.items():
        if "cycles/sec" not in metrics or name not in newm:
            continue
        if not ref_new or not ref_base:
            break
        base_norm = metrics["cycles/sec"] / ref_base
        got = cps(newm, name)
        if got is None:
            failures.append(f"{name}: cycles/sec metric missing from new run")
            continue
        new_norm = got / ref_new
        if new_norm < (1 - TOLERANCE) * base_norm:
            failures.append(
                f"{name}: normalized cycles/sec regressed "
                f"{base_norm:.3f} -> {new_norm:.3f} (>{TOLERANCE:.0%} drop)"
            )

    num, den = cps(newm, SPEEDUP_NUM), cps(newm, SPEEDUP_DEN)
    if num and den:
        speedup = num / den
        if speedup < MIN_SPEEDUP:
            failures.append(
                f"idle-heavy skip speedup {speedup:.2f}x < {MIN_SPEEDUP}x floor"
            )
        print(f"idle-heavy skip speedup: {speedup:.2f}x")

    apc = newm.get(SPEEDUP_NUM, {}).get("allocs/cycle")
    if apc is not None:
        print(f"idle-heavy skip allocs/cycle: {apc:.4f}")
        if apc > MAX_ALLOCS_PER_CYCLE:
            failures.append(
                f"{SPEEDUP_NUM}: {apc:.4f} allocs/cycle > {MAX_ALLOCS_PER_CYCLE} floor"
            )

    failures += check_raceclass(newm)
    failures += check_solve(newm)

    for f in failures:
        print(f"REGRESSION: {f}", file=sys.stderr)
    return not failures


def check_raceclass(newm):
    """Machine-independent floors for the bitset relation kernels and the
    arena race classifier. Each gate only fires when its benchmarks are
    present, so older baselines pass unchanged."""
    failures = []

    # Arena analysis: absolute allocs/op ceiling plus fresh/arena ratio.
    for name, metrics in sorted(newm.items()):
        if not (name.startswith("BenchmarkAnalyze/") and name.endswith("/arena")):
            continue
        allocs = metrics.get("allocs/op")
        if allocs is None:
            continue
        prog = name[len("BenchmarkAnalyze/"):-len("/arena")]
        print(f"analyze arena allocs/op [{prog}]: {allocs:.0f}")
        if allocs > MAX_ARENA_ALLOCS:
            failures.append(
                f"{name}: {allocs:.0f} allocs/op > {MAX_ARENA_ALLOCS:.0f} ceiling"
            )
        fresh = newm.get(f"BenchmarkAnalyze/{prog}/fresh", {}).get("allocs/op")
        if fresh is not None:
            ratio = fresh / max(allocs, 1.0)
            if ratio < MIN_ARENA_ALLOC_RATIO:
                failures.append(
                    f"{name}: fresh/arena allocs ratio {ratio:.1f}x "
                    f"< {MIN_ARENA_ALLOC_RATIO:.0f}x floor"
                )

    # Bitset kernels vs the retained []bool reference implementation.
    for name, metrics in sorted(newm.items()):
        if not name.endswith("/bitset"):
            continue
        ref = newm.get(name[: -len("/bitset")] + "/ref", {}).get("ns/op")
        got = metrics.get("ns/op")
        if not ref or not got:
            continue
        speedup = ref / got
        print(f"kernel speedup [{name[len('Benchmark'):-len('/bitset')]}]: {speedup:.1f}x")
        if speedup < MIN_KERNEL_SPEEDUP:
            failures.append(
                f"{name}: {speedup:.2f}x vs reference < {MIN_KERNEL_SPEEDUP}x floor"
            )

    return failures


def check_solve(newm):
    """Machine-independent floor for the constraint-solving backend:
    wherever BenchmarkSolve ran a program in both modes, solving must
    beat enumerating by MIN_SOLVE_SPEEDUP. Fires only when the solver
    benchmarks are present, so older baselines pass unchanged."""
    failures = []
    for name, metrics in sorted(newm.items()):
        if not (name.startswith("BenchmarkSolve/") and name.endswith("/solve")):
            continue
        enum_ns = newm.get(name[: -len("/solve")] + "/enumerate", {}).get("ns/op")
        got = metrics.get("ns/op")
        if not enum_ns or not got:
            continue
        speedup = enum_ns / got
        prog = name[len("BenchmarkSolve/"):-len("/solve")]
        print(f"solve vs enumerate [{prog}]: {speedup:.0f}x")
        if speedup < MIN_SOLVE_SPEEDUP:
            failures.append(
                f"{name}: {speedup:.1f}x vs enumeration < {MIN_SOLVE_SPEEDUP:.0f}x floor"
            )
    return failures


def check_telemetry(newm, basem):
    """Gate the disabled-telemetry (nil-fold) overhead on the enumerator
    and checker hot paths: median over the gated set <= TELEMETRY_TOLERANCE,
    any single bench <= TELEMETRY_BENCH_CEILING, normalized by a shared
    reference set to divide out machine speed."""
    failures = []

    ratios = []
    for name, metrics in basem.items():
        if not name.startswith(TELEMETRY_REFERENCES):
            continue
        base_ns, new_ns = metrics.get("ns/op"), newm.get(name, {}).get("ns/op")
        if base_ns and new_ns:
            ratios.append(new_ns / base_ns)
    if not ratios:
        print("telemetry gate: no shared reference benchmarks; skipping")
        return failures
    scale = aggregate("", ratios)  # median across the untouched references
    print(f"telemetry gate: machine scale {scale:.3f}x (median over {len(ratios)} references)")

    gated = []
    for name, metrics in sorted(basem.items()):
        if not any(name.startswith(p) and name.endswith(s) for p, s in TELEMETRY_GATED):
            continue
        base_ns = metrics.get("ns/op")
        new_ns = newm.get(name, {}).get("ns/op")
        if not base_ns or not new_ns:
            continue
        ratio = new_ns / (base_ns * scale)
        gated.append(ratio)
        print(f"disabled-telemetry overhead [{name[len('Benchmark'):]}]: {ratio - 1:+.1%}")
        if ratio > 1 + TELEMETRY_BENCH_CEILING:
            failures.append(
                f"{name}: disabled-telemetry ns/op regressed {ratio - 1:+.1%} "
                f"(> {TELEMETRY_BENCH_CEILING:.0%} per-bench backstop, normalized)"
            )
    if gated:
        overall = aggregate("", gated)  # median regression over the gated set
        print(
            f"disabled-telemetry overhead [median of {len(gated)} hot-path "
            f"benches]: {overall - 1:+.1%} (ceiling {TELEMETRY_TOLERANCE:.0%})"
        )
        if overall > 1 + TELEMETRY_TOLERANCE:
            failures.append(
                f"median hot-path ns/op regressed {overall - 1:+.1%} "
                f"(> {TELEMETRY_TOLERANCE:.0%} ceiling, normalized, "
                f"{len(gated)} benches)"
            )

    # Enabled-telemetry cost, informational: "+tel" vs plain in NEW.
    for name, metrics in sorted(newm.items()):
        if not name.endswith("+tel"):
            continue
        plain = newm.get(name[: -len("+tel")], {}).get("ns/op")
        got = metrics.get("ns/op")
        if plain and got:
            print(f"enabled-telemetry overhead [{name[len('Benchmark'):]}]: {got / plain - 1:+.1%}")

    return failures


def main():
    if len(sys.argv) < 4 or sys.argv[1] not in ("parse", "check", "check-telemetry"):
        print(__doc__, file=sys.stderr)
        return 2
    if sys.argv[1] == "parse":
        report = parse(sys.argv[3:])
        if not report:
            print("no benchmark results parsed", file=sys.stderr)
            return 1
        with open(sys.argv[2], "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")
        print(f"{len(report)} benchmarks -> {sys.argv[2]}")
        return 0
    new = json.load(open(sys.argv[2]))
    base = json.load(open(sys.argv[3]))
    if sys.argv[1] == "check-telemetry":
        failures = check_telemetry(by_name(new), by_name(base))
        for f in failures:
            print(f"REGRESSION: {f}", file=sys.stderr)
        print("telemetry overhead gate:", "OK" if not failures else "FAILED")
        return 0 if not failures else 1
    ok = check(new, base)
    print("benchmark gate:", "OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
