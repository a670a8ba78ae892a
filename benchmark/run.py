#!/usr/bin/env python3
"""GLAP benchmark: four workloads, end-to-end metrics and a per-layer ledger.

  python3 benchmark/run.py [--seed N] [--reps R] [--out FILE]
      every workload, R fresh processes each plus one traced pass
  python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
      one run of one workload; the last stdout line is the result object
  python3 benchmark/run.py --compare BASE.json HEAD.json
      applies the bounds in BENCHMARK.json to two result files
  python3 benchmark/run.py --smoke
      self-test at reduced size (schema, determinism, pinned digests)

The benchmark binary is built from ../src on first use into benchmark/.build/.
Metric and workload definitions are in benchmark/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "benchmark"
BUILD = HERE / ".build"
BINARY = BUILD / "glap_bench"
RUN_TIMEOUT_S = 170


class RunError(Exception):
    """A run that crashed, timed out, or produced inconsistent digests."""


def die(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def nproc():
    return len(os.sched_getaffinity(0))


def pool_threads():
    return min(4, nproc())


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


# ---- build and host ---------------------------------------------------------


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no GLAP sources at {ROOT / 'src'}; run from a full checkout")
    try:
        if not (BUILD / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD)],
                           stdout=sys.stderr, check=True)
        subprocess.run(
            ["cmake", "--build", str(BUILD), "-j", str(pool_threads())],
            stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        die(f"build failed: {e}")


def host_note(raw):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    revision = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            revision = proc.stdout.strip()
    return {"nproc": nproc(), "cpu_model": cpu,
            "compiler": raw.get("compiler", "unknown"),
            "build_flags": raw.get("build_flags", "unknown"),
            "git_revision": revision}


# ---- one process per run ----------------------------------------------------


def run_binary(workload, seed, seconds, trace, size):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--size", size]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RunError(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RunError(
            f"{workload}: exit {proc.returncode}: {proc.stderr.strip()}")
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError as e:
        raise RunError(f"{workload}: unreadable output: {e}")


def run_digest(raw):
    """The run's digest; raises when its own passes disagree."""
    name = raw["workload"]
    digests = {op["digest"] for op in raw["ops"]}
    if "traced_digest" in raw:
        digests.add(raw["traced_digest"])
    for run in raw.get("traced_runs", []):
        if run.get("untraced_digest", run["digest"]) != run["digest"]:
            raise RunError(f"{name}: traced and untraced cell differ")
    if len({op["trace_bytes"] for op in raw["ops"]}) > 1:
        raise RunError(f"{name}: trace size differs between passes")
    if len(digests) != 1:
        raise RunError(f"{name}: digests disagree: {sorted(digests)}")
    return digests.pop()


def pinned_digest(pins, size, seed, workload):
    return pins.get(size, {}).get(str(seed), {}).get(workload)


# ---- metrics ----------------------------------------------------------------


def end_to_end(raw):
    """End-to-end metrics of one run: metric name -> value."""
    return {
        "rounds_per_s": statistics.median(op["rounds"] / op["wall_s"]
                                          for op in raw["ops"]),
        "peak_rss_mib": raw["peak_rss_mib"],
        "setup_s": statistics.median(raw["setup_s"]),
    }


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def per_layer(raw, declared):
    """Per-layer metrics of one traced run: name -> (value, unit).

    Every name in `declared` is present; a layer that did no work on this
    workload (no network, no baseline cells) reads 0.
    """
    runs = raw["traced_runs"]
    out = {m["name"]: (0, m["unit"]) for m in declared}

    def total(key):
        return sum(r[key] for r in runs)

    wall = total("wall_s")
    phases = {}
    for r in runs:
        for p in r["profile"]:
            calls, ns = phases.get(p["label"], (0, 0))
            phases[p["label"]] = (calls + p["calls"], ns + p["wall_ns"])
    for label, (calls, ns) in phases.items():
        out[f"phase.{label}.self_s"] = (ns / 1e9, "s")
        out[f"phase.{label}.calls"] = (calls, "count")
    unattributed = wall - sum(ns for _, ns in phases.values()) / 1e9
    out["phase.unattributed_s"] = (unattributed, "s")
    out["phase.unattributed_frac"] = (unattributed / wall, "ratio")

    counters, glap = {}, {}
    for r in runs:
        for name, value in json.loads(r["registry"])["counters"].items():
            if name.startswith("profile."):
                continue  # the phase call counts again
            counters[name] = counters.get(name, 0) + value
            # The sweep mixes algorithms; the yield is GLAP's own.
            if r["algorithm"] == "GLAP":
                glap[name] = glap.get(name, 0) + value
    for name, value in counters.items():
        out[f"counter.{name}"] = (value, "count")
    out["core.consolidation_yield"] = (
        ratio(glap.get("dc.migrations", 0),
              glap.get("consolidation.exchanges", 0)), "ratio")
    out["net.delivery_ratio"] = (
        ratio(total("net_delivered"), total("net_sends")), "ratio")

    out["sim.parked_fraction"] = (
        total("parked_pms_mean") / total("pm_count"), "ratio")
    out["sim.messages"] = (total("messages"), "count")
    out["sim.bytes"] = (total("bytes"), "B")
    out["harness.relearn_triggers"] = (total("relearn_triggers"), "count")
    out["common.trace_bytes"] = (total("trace_bytes"), "B")

    for name, value in raw["probes"].items():
        if name != "sink":
            out[name] = (value, "ns")
    out["mem.setup_rss_mib"] = (raw["setup_rss_mib"], "MiB")
    out["mem.run_growth_mib"] = (
        raw["peak_rss_mib"] - raw["setup_rss_mib"], "MiB")

    # Cells timed one at a time: the sweep times each untraced cell alone;
    # a single-cell workload's cell is its untraced pass.
    untraced = statistics.median(op["wall_s"] for op in raw["ops"])
    if all("untraced_wall_s" in r for r in runs):
        cells = [(r["algorithm"], r["untraced_wall_s"]) for r in runs]
    else:
        cells = [(runs[0]["algorithm"], untraced)]
    cell_total = sum(s for _, s in cells)
    for alg in {a for a, _ in cells}:
        out[f"harness.cell_s.{alg}"] = (
            sum(s for a, s in cells if a == alg), "s")
    out["harness.pool_efficiency"] = (
        cell_total / (raw["threads"] * untraced), "ratio")
    out["trace_overhead_ratio"] = (wall / cell_total, "ratio")
    return out


def summary(name, unit, values, better=None):
    values = sorted(values)
    median = statistics.median(values)
    q1, q3 = median, median
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    metric = {"name": name, "unit": unit, "median": median, "q1": q1,
              "q3": q3, "n": len(values)}
    if better:
        metric["better"] = better
        metric["values"] = values
    return metric


def validate(results, spec):
    """Problems with a results document's schema, as strings."""
    problems = []
    wanted = {
        "end_to_end": [m["name"] for m in spec["end_to_end"]] + ["error_rate"],
        "per_layer": [m["name"] for m in spec["per_layer"]],
    }
    for w in (m["name"] for m in spec["workloads"]):
        entry = results["workloads"].get(w)
        if entry is None:
            problems.append(f"{w}: missing")
            continue
        for section, names in wanted.items():
            metrics = entry.get(section, [])
            have = {m.get("name") for m in metrics}
            problems += [f"{w}: {section} lacks {n}"
                         for n in names if n not in have]
            for m in metrics:
                numbers = all(isinstance(m.get(k), (int, float))
                              for k in ("median", "q1", "q3"))
                if not (isinstance(m.get("name"), str)
                        and isinstance(m.get("unit"), str) and numbers
                        and isinstance(m.get("n"), int) and m["n"] >= 1):
                    problems.append(f"{w}: malformed metric {m}")
    return problems


# ---- modes ------------------------------------------------------------------


def one_run_mode(args, spec, pins):
    """One run of one workload; prints the result object as the last line."""
    build()
    try:
        # A traced run reports no end-to-end metric, so one untraced pass of
        # the workload is enough for its digest and the overhead baseline.
        seconds = 0 if args.trace else args.seconds
        raw = run_binary(args.workload, args.seed, seconds, args.trace,
                         "full")
        attempted = len(raw["ops"]) + len(raw.get("traced_runs", []))
        digest = run_digest(raw)
        pin = pinned_digest(pins, "full", args.seed, args.workload)
        if pin is not None and digest != pin:
            raise RunError(
                f"{args.workload}: digest {digest} != pinned {pin}")
    except RunError as e:
        print(f"run.py: {e}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    if args.trace:
        declared = spec["per_layer"]
        values = {n: v for n, (v, _) in per_layer(raw, declared).items()}
    else:
        declared = spec["end_to_end"]
        values = end_to_end(raw)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"host": host_note(raw), "workload": args.workload,
                      "seed": args.seed, "digest": digest}))
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                      "metrics": metrics}))
    return 0


def collect(spec, pins, seed, reps, size):
    """Runs every workload `reps` times plus once traced; returns results."""
    names = [w["name"] for w in spec["workloads"]]
    raws = {w: [] for w in names}
    errors = {w: [] for w in names}

    def attempt(w, trace):
        start = time.monotonic()
        try:
            raw = run_binary(w, seed, 0, trace, size)
            raw["digest"] = run_digest(raw)
            raws[w].append(raw)
            print(f"  {w:16s} trace={int(trace)} "
                  f"{time.monotonic() - start:6.1f} s  "
                  f"digest {raw['digest']}", file=sys.stderr)
        except RunError as e:
            errors[w].append(str(e))
            print(f"  {w:16s} FAILED: {e}", file=sys.stderr)

    for rep in range(reps):
        # Alternate the order so no workload always follows the same one.
        for w in names if rep % 2 == 0 else names[::-1]:
            attempt(w, trace=False)
    for w in names:
        attempt(w, trace=True)

    results = {"seed": seed, "reps": reps, "size": size, "workloads": {}}
    for w in names:
        runs = raws[w]
        # A pinned seed must match its pin; any other seed must agree with
        # itself across reps and the traced pass (the majority is expected).
        digests = [r["digest"] for r in runs]
        expected = pinned_digest(pins, size, seed, w)
        if expected is None and digests:
            expected = max(set(digests), key=digests.count)
        errors[w] += [f"{w}: digest {d} != expected {expected}"
                      for d in digests if d != expected]
        attempted, failed = reps + 1, len(errors[w])
        samples = [end_to_end(r) for r in runs if "traced_runs" not in r]
        e2e = [summary(m["name"], m["unit"],
                       [s[m["name"]] for s in samples], m["better"])
               for m in spec["end_to_end"] if samples]
        e2e.append(summary("error_rate", "ratio", [failed / attempted],
                           "lower"))
        traced = [r for r in runs if "traced_runs" in r]
        layers = per_layer(traced[0], spec["per_layer"]) if traced else {}
        results["workloads"][w] = {
            "attempted": attempted, "failed": failed, "digest": expected,
            "errors": errors[w], "end_to_end": e2e,
            "per_layer": [summary(n, u, [v])
                          for n, (v, u) in sorted(layers.items())]}
    first = next((r for w in names for r in raws[w]), None)
    results["host"] = host_note(first) if first else None
    return results


def print_results(results):
    print(f"seed {results['seed']}, {results['reps']} reps, "
          f"size {results['size']}")
    for w, entry in results["workloads"].items():
        print(f"\n{w}  (digest {entry['digest']}, "
              f"{entry['failed']}/{entry['attempted']} failed)")
        for m in entry["end_to_end"] + entry["per_layer"]:
            print(f"  {m['name']:38s} {m['median']:>14.6g} {m['unit']:6s} "
                  f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n {m['n']}")


def all_mode(args, spec, pins):
    build()
    results = collect(spec, pins, args.seed, args.reps, "full")
    problems = validate(results, spec)
    print_results(results)
    out = Path(args.out or HERE / ".out" / f"seed{args.seed}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"\nwrote {out}")
    for p in problems:
        print(f"schema: {p}", file=sys.stderr)
    failed = any(e["failed"] for e in results["workloads"].values())
    return 1 if failed or problems else 0


def smoke_mode(spec, pins):
    """Each workload once untraced and once traced at reduced size."""
    build()
    start = time.monotonic()
    results = collect(spec, pins, 42, 1, "smoke")
    problems = validate(results, spec)
    for entry in results["workloads"].values():
        problems += entry["errors"]
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print(f"smoke: {'FAIL' if problems else 'ok'} in "
          f"{time.monotonic() - start:.1f} s")
    return 1 if problems else 0


def verdict(base, head, bound):
    """better, worse, unchanged or unresolved for one metric."""
    sign = 1 if base["better"] == "higher" else -1
    gain = sign * (head["median"] - base["median"]) / base["median"]
    spread = max((m["q3"] - m["q1"]) / m["median"] for m in (base, head))
    if spread > bound:
        # Too noisy to call, unless every head run beats every base run.
        if (min(sign * v for v in head["values"])
                > max(sign * v for v in base["values"])):
            return "better", gain, spread
        return "unresolved", gain, spread
    if gain < -bound:
        return "worse", gain, spread
    return ("better" if gain > bound else "unchanged"), gain, spread


def compare_mode(base_path, head_path, spec):
    """One row per workload: better, worse, unchanged or unresolved."""
    base, head = load_json(base_path), load_json(head_path)
    any_worse = False
    for w in (m["name"] for m in spec["workloads"]):
        if w not in base["workloads"] or w not in head["workloads"]:
            print(f"{w:16s} unresolved  (missing from one side)")
            continue
        b = {m["name"]: m for m in base["workloads"][w]["end_to_end"]}
        h = {m["name"]: m for m in head["workloads"][w]["end_to_end"]}
        verdicts, cells = [], []
        errors = (b["error_rate"]["median"], h["error_rate"]["median"])
        if errors[1] > errors[0]:
            verdicts.append("worse")
            cells.append(f"error_rate {errors[0]:.3g}->{errors[1]:.3g}")
        for m in spec["end_to_end"]:
            bm, hm = b[m["name"]], h[m["name"]]
            v, gain, spread = verdict(bm, hm, m["bound"])
            verdicts.append(v)
            cells.append(f"{m['name']} {bm['median']:.4g}->{hm['median']:.4g}"
                         f" ({100 * gain:+.1f}%, spread {100 * spread:.1f}%,"
                         f" bound {100 * m['bound']:.0f}%: {v})")
        row = next((v for v in ("worse", "unresolved", "better")
                    if v in verdicts), "unchanged")
        any_worse |= row == "worse"
        print(f"{w:16s} {row:10s}  " + "; ".join(cells))
    return 1 if any_worse else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--out", help="results file "
                        "(default benchmark/.out/seed<N>.json)")
    parser.add_argument("--workload", help="run only this workload, once")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="with --workload: repeat the workload this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: print per-layer metrics")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "BENCHMARK.json").is_file():
        die(f"no BENCHMARK.json at {ROOT}")
    spec = load_json(ROOT / "BENCHMARK.json")
    pins = load_json(HERE / "digests.json")
    if args.compare:
        return compare_mode(*args.compare, spec)
    if args.smoke:
        return smoke_mode(spec, pins)
    if args.workload:
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            die(f"unknown workload {args.workload}")
        return one_run_mode(args, spec, pins)
    if args.reps < 1:
        die("--reps must be >= 1")
    return all_mode(args, spec, pins)


if __name__ == "__main__":
    sys.exit(main())
