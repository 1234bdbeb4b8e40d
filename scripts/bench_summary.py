#!/usr/bin/env python3
"""Summarize perfbench runs of two checkouts into one BENCH_*.json.

Each checkout's ``.perfbench_out/`` holds one ``<workload>-seed<s>-trace<t>.json``
per ``perfbench/run.py`` call. Per workload this collects:

- ``steps_per_s`` of the ``--trace 0`` runs at the ``--seeds`` given:
  median, quartiles, the values and their seeds, for the parent and for the
  change, and the pairs (same seed) in which the change is faster; a
  checkout that lacks one of those seeds for a workload is refused, and runs
  at other seeds are left out;
- ``err_digits``, ``peak_rss_mb`` and ``setup_s`` of those runs, and how many
  operations were attempted and failed;
- the per-layer metrics of the ``--trace 1`` runs (the median over runs when
  there are several), and beside them per-step totals: each ``*_per_solve``
  metric times ``newton.solves_per_step`` (Newton iterations, LU
  factorizations, callbacks, microseconds per step), so that a change which
  removes cheap stage solves does not read as a costlier layer.

Usage:

    python3 scripts/bench_summary.py PARENT CHANGE --label fixed_point_skip --seeds 501-510

writes ``BENCH_fixed_point_skip.json`` in the current directory, where
PARENT and CHANGE are checkouts in which ``perfbench/run.py`` has been run.
"""

import argparse
import glob
import json
import os
import statistics
import sys

END_TO_END = ("steps_per_s", "err_digits", "peak_rss_mb", "setup_s")


def parse_seeds(spec: str) -> list:
    """Seeds from ``501-510`` or ``1,3,7-9``."""
    seeds = set()
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.update(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise ValueError(f"no seeds in {spec!r}")
    return sorted(seeds)


def load_runs(checkout: str, seeds: list) -> list:
    """The traced runs and the ``--trace 0`` runs at ``seeds`` of a checkout."""
    runs = []
    for path in sorted(glob.glob(os.path.join(checkout, ".perfbench_out", "*.json"))):
        with open(path) as fh:
            run = json.load(fh)
        if run["notes"]["trace"] or run["notes"]["seed"] in seeds:
            runs.append(run)
    if not runs:
        raise SystemExit(f"bench_summary: no perfbench results under {checkout}")
    return runs


def check_seeds(checkout: str, runs: list, workloads: list, seeds: list) -> None:
    """Exit unless ``runs`` hold a ``--trace 0`` run of each workload at each seed."""
    for workload in workloads:
        have = {r["notes"]["seed"] for r in runs
                if r["notes"]["workload"] == workload and r["notes"]["trace"] == 0}
        missing = sorted(set(seeds) - have)
        if missing:
            raise SystemExit(f"bench_summary: {checkout} has no {workload} run "
                             f"(--trace 0) at seeds {missing}")


def spread(values: list) -> dict:
    """Median and quartiles of ``values``, with the values themselves."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def side_summary(runs: list, workload: str) -> dict:
    """End-to-end and per-layer figures of one checkout for ``workload``."""
    e2e = sorted((r for r in runs if r["notes"]["workload"] == workload
                  and r["notes"]["trace"] == 0), key=lambda r: r["notes"]["seed"])
    traced = [r for r in runs if r["notes"]["workload"] == workload
              and r["notes"]["trace"] == 1]
    out = {"attempted": sum(r["result"]["attempted"] for r in e2e + traced),
           "failed": sum(r["result"]["failed"] for r in e2e + traced)}
    out["seeds"] = [r["notes"]["seed"] for r in e2e]
    for name in END_TO_END:
        values = [r["result"]["metrics"][name]["value"] for r in e2e]
        if values:
            out[name] = spread(values)
    if traced:
        names = traced[0]["result"]["metrics"]
        out["per_layer"] = {
            name: statistics.median(r["result"]["metrics"][name]["value"] for r in traced)
            for name in names}
        out["per_layer_seeds"] = [r["notes"]["seed"] for r in traced]
        per_step = out["per_layer"].get("newton.solves_per_step")
        if per_step is not None:
            out["per_step"] = {name[:-len("_per_solve")] + "_per_step": value * per_step
                               for name, value in out["per_layer"].items()
                               if name.endswith("_per_solve")}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    ap.add_argument("--seeds", required=True, type=parse_seeds,
                    help="seeds of the --trace 0 runs to pair, e.g. 501-510")
    args = ap.parse_args()

    parent, change = load_runs(args.parent, args.seeds), load_runs(args.change, args.seeds)
    timed = sorted({r["notes"]["workload"] for r in parent + change
                    if r["notes"]["trace"] == 0})
    for checkout, runs in ((args.parent, parent), (args.change, change)):
        check_seeds(checkout, runs, timed, args.seeds)
    notes = change[0]["notes"]
    summary = {
        "label": args.label,
        "seeds": args.seeds,
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1",
        "machine": {key: notes[key] for key in ("cpu_model", "nproc", "python",
                                                "numpy", "scipy")},
        "workloads": {},
    }
    workloads = sorted({r["notes"]["workload"] for r in parent + change})
    for workload in workloads:
        entry = {"parent": side_summary(parent, workload),
                 "change": side_summary(change, workload)}
        rates = [dict(zip(entry[side]["seeds"], entry[side]["steps_per_s"]["values"]))
                 for side in ("parent", "change") if "steps_per_s" in entry[side]]
        if len(rates) == 2:
            paired = sorted(set(rates[0]) & set(rates[1]))
            entry["pairs"] = len(paired)
            entry["pairs_change_faster"] = sum(rates[1][s] > rates[0][s] for s in paired)
        summary["workloads"][workload] = entry

    path = f"BENCH_{args.label}.json"
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    for workload, entry in summary["workloads"].items():
        medians = [entry[side].get("steps_per_s", {}).get("median")
                   for side in ("parent", "change")]
        print(f"{workload}: steps_per_s median {medians[0]} -> {medians[1]}, "
              f"change faster in {entry.get('pairs_change_faster')} of "
              f"{entry.get('pairs')} pairs", file=sys.stderr)
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
