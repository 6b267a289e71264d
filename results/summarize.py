#!/usr/bin/env python3
"""Summarises the harness CSV outputs into the EXPERIMENTS.md tables."""
import csv
import sys
from collections import defaultdict


def final_acc(path, key_cols):
    last = {}
    with open(path) as f:
        for row in csv.DictReader(f):
            key = tuple(row[c] for c in key_cols)
            last[key] = float(row["accuracy"])
    return last


def fig3(path, xcol):
    print(f"== {path} (final accuracy per series) ==")
    last = final_acc(path, ["dist", "label"])
    for (dist, label), acc in sorted(last.items()):
        print(f"  {dist:7s} {label:10s} {acc:.3f}")


def fig1(path, keys):
    print(f"== {path} (final accuracy per condition) ==")
    last = final_acc(path, keys)
    for key, acc in sorted(last.items()):
        print(f"  {','.join(key):40s} {acc:.3f}")


if __name__ == "__main__":
    base = sys.argv[1] if len(sys.argv) > 1 else "results"
    jobs = [
        (fig3, "fig3_sync.csv", "round"),
        (fig3, "fig3_async.csv", "sim_time_s"),
        (fig1, "fig1_sync.csv", ["model", "dist", "fault", "straggler_frac", "label"]),
        (fig1, "fig1_async.csv", ["dist", "fault", "straggler_frac", "label"]),
    ]
    for summarize, name, arg in jobs:
        try:
            summarize(f"{base}/{name}", arg)
        except FileNotFoundError as e:
            print(f"missing: {e.filename}")
