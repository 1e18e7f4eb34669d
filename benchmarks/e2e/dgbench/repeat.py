"""``--all`` and ``--repeat N``: many runs, each in a process of its own.

``--repeat N`` is the benchmark's own acceptance check, the one the
driver applies: two sets of ``N`` runs per workload (another seed every
run, workloads alternating so that host drift hits them alike).  Per
metric and workload it reports each set's median and quartiles, the
inter-quartile spread as a share of the median against the metric's
bound, and how much worse the second set's median is than the first's.
"""

from __future__ import annotations

import json
import subprocess
import sys

from dgbench import provenance, stats

#: Seed offset of the second set: same code, other load.
SECOND_SET = 1000
RUN_TIMEOUT_S = 900


def one_run(script: str, args, workload: str, seed: int) -> dict:
    command = [
        sys.executable,
        script,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]  # fmt: skip
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(done.returncode)
    if args.all:
        print(done.stdout, end="")
    return json.loads(done.stdout.strip().splitlines()[-1])


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / abs(first) if first else 0.0
    return change if better == "lower" else -change


def summarize(sets: "list[dict]", catalogue: "list[dict]") -> dict:
    """Per workload and metric: medians, quartiles, spread, drift, verdict."""
    summary: dict = {}
    for workload in sets[0]["runs"]:
        rows = summary[workload] = {}
        for entry in catalogue:
            name, bound = entry["name"], entry.get("bound")
            per_set = []
            for one in sets:
                values = [
                    run["metrics"][name]["value"]
                    for run in one["runs"][workload]
                    if run["metrics"][name]["value"] is not None
                ]
                if len(values) < 2:
                    continue
                q1, q2, q3 = stats.quartiles(values)
                per_set.append(
                    {"q1": q1, "median": q2, "q3": q3, "spread": stats.relative_spread(values)}
                )
            if not per_set:
                continue
            row = rows[name] = {"unit": entry["unit"], "bound": bound, "sets": per_set}
            if len(per_set) == 2:
                row["second_worse_by"] = worse_by(
                    per_set[0]["median"], per_set[1]["median"], entry["better"]
                )
            if bound is not None:
                widest = max(one["spread"] for one in per_set)
                # setup_s answers to the drift rule only.
                row["within_bound"] = (
                    name == "setup_s" or widest <= bound
                ) and row.get("second_worse_by", 0.0) <= bound
                row["steady"] = widest <= bound / 3
    return summary


def print_summary(summary: dict) -> None:
    for workload, rows in summary.items():
        print(f"\n{workload}")
        print(
            f"  {'metric':<40} {'median A':>12} {'median B':>12} "
            f"{'spread A':>9} {'spread B':>9} {'B worse':>8} {'bound':>6}"
        )
        for name, row in rows.items():
            first, second = row["sets"][0], row["sets"][-1]
            bound = "" if row["bound"] is None else f"{row['bound']:.2f}"
            verdict = ""
            if row["bound"] is not None:
                verdict = "ok" if row["within_bound"] else "OUTSIDE"
                if row["within_bound"] and not row["steady"]:
                    verdict = "ok (spread > bound/3)"
            print(
                f"  {name:<40} {first['median']:>12.6g} {second['median']:>12.6g} "
                f"{first['spread']:>9.3f} {second['spread']:>9.3f} "
                f"{row.get('second_worse_by', 0.0):>+8.3f} {bound:>6} {verdict}"
            )


def run(args, contract: dict, script: str) -> int:
    workloads = [workload["name"] for workload in contract["workloads"]]
    catalogue = contract["per_layer" if args.trace else "end_to_end"]
    repeats = 1 if args.all else args.repeat
    sets = []
    for offset in (0,) if args.all else (0, SECOND_SET):
        seeds = [args.seed + offset + i for i in range(repeats)]
        runs: "dict[str, list[dict]]" = {workload: [] for workload in workloads}
        for seed in seeds:
            for workload in workloads:
                runs[workload].append(one_run(script, args, workload, seed))
                if not args.all:
                    print(f"set {len(sets) + 1} seed {seed} {workload} done", flush=True)
        sets.append({"seeds": seeds, "runs": runs})
    report = {
        "claim": None,
        "provenance": {**provenance.host(), "seconds": args.seconds, "smoke": args.smoke},
        "sets": sets,
    }
    if not args.all:
        report["summary"] = summarize(sets, catalogue)
        print_summary(report["summary"])
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
    failed = sum(run["failed"] for one in sets for runs in one["runs"].values() for run in runs)
    return 0 if failed == 0 else 1
