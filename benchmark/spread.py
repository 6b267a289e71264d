#!/usr/bin/env python3
"""Replays the driver's A/A check of this benchmark on the current host.

Two sets of ten seeds per workload, workloads interleaved, `--trace 0`,
`run_seconds` from BENCHMARK.json. For every (workload, metric) it prints
the middle-half spread of each set as a share of the set's median and of
the metric's bound, the shift between the two set medians, and — for the
time metrics — the same spread of the raw (unpaired) numbers, so the
pairing shows what it buys. Run it from the repository root:

    python3 benchmark/spread.py

Exit status 1 when a spread (other than `setup_s`) exceeds its bound, a
set-median shift exceeds its bound, `ledger_mb` differs per seed between
the sets, or any invocation reports a failed operation.
"""

import json
import statistics
import subprocess
import sys
import time

SEEDS_PER_SET = 10


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def invoke(command, workload, seed, seconds):
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(argv, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited with {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    raw = {}
    for line in done.stderr.splitlines():
        if line.startswith("raw "):
            raw = {k: float(v) for k, v in (kv.split("=") for kv in line.split()[1:])}
    return result, raw


def main():
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    # values[set][workload][metric] -> one value per seed; raw likewise.
    values = [{w: {m["name"]: [] for m in metrics} for w in workloads} for _ in range(2)]
    raws = [{w: {} for w in workloads} for _ in range(2)]
    failed = 0
    started = time.time()
    for which in range(2):
        for seed in range(1, SEEDS_PER_SET + 1):
            for workload in workloads:
                result, raw = invoke(spec["command"], workload, seed, seconds)
                failed += result["failed"] + (0 if result["correct"] else 1)
                for m in metrics:
                    values[which][workload][m["name"]].append(
                        result["metrics"][m["name"]]["value"])
                for key, value in raw.items():
                    raws[which][workload].setdefault(key, []).append(value)
                print(f"set {which + 1} seed {seed} {workload}: "
                      + " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.5g}"
                                 for m in metrics)
                      + f" host={raw.get('host_slowdown', float('nan')):.3f}",
                      file=sys.stderr, flush=True)

    slowdowns = [v for which in raws for w in workloads
                 for v in which[w].get("host_slowdown", [])]
    print(f"# {2 * SEEDS_PER_SET * len(workloads)} invocations of {seconds} s in "
          f"{time.time() - started:.0f} s; host.slowdown median "
          f"{statistics.median(slowdowns):.3f}, range "
          f"{min(slowdowns):.3f}-{max(slowdowns):.3f}")
    print("workload            metric          set1 spread (of bound)   "
          "set2 spread (of bound)   median shift   raw set1   raw set2")
    ok = failed == 0
    for workload in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            a, b = (values[which][workload][name] for which in range(2))
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a * (1 if m["better"] == "lower" else -1)
            spreads = [spread(a), spread(b)]
            raw = [spread(raws[which][workload][name]) if name in raws[which][workload]
                   else None for which in range(2)]
            within = worse <= bound and (name == "setup_s" or max(spreads) <= bound)
            if name == "ledger_mb" and a != b:
                within = False
            ok = ok and within
            print(f"{workload:<19} {name:<14} "
                  + "   ".join(f"{s * 100:6.2f} % ({s / bound * 100:5.1f} %)   " for s in spreads)
                  + f"{worse * 100:+7.2f} %     "
                  + "   ".join("   -    " if r is None else f"{r * 100:6.2f} %" for r in raw)
                  + ("" if within else "   <-- outside the bound"))
    print(f"# failed operations: {failed}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
