"""One command for the layered end-to-end benchmark.

    python3 benchmarks/e2e/run.py --workload NAME --seed S --seconds T --trace 0|1
    python3 benchmarks/e2e/run.py --all [--smoke]
    python3 benchmarks/e2e/run.py --repeat N [--out FILE]

A run generates its load from ``--seed``, drives the public API of
``src/repro``, checks sampled answers against a naive scan of its own
model, prints every metric by name and unit, and ends with one JSON
line ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
(the default) reports the end-to-end metrics from an untraced run;
``--trace 1`` reports the per-layer metrics and writes the spans.
See ``benchmarks/e2e/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SOURCE = os.path.join(ROOT, "src")
#: Scratch and default outputs; inside the benchmark's own directory so a
#: run never writes outside its checkout.  Ignored by git.
OUT_DIR = os.path.join(HERE, "out")
#: One BLAS thread: the kernel's sgemm must not fan out under the harness.
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SMOKE_SECONDS = 2.5


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def parse_args(argv: "list[str] | None", contract: dict) -> argparse.Namespace:
    names = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--all", action="store_true", help="run every workload once")
    parser.add_argument(
        "--repeat",
        type=int,
        metavar="N",
        help="two sets of N runs per workload, alternating workloads; "
        "prints medians, quartiles and spread against each bound",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="n = 2,000 and short phases")
    parser.add_argument("--out", help="write the detailed result here as JSON")
    parser.add_argument("--trace-out", help="span file (default: under out/)")
    args = parser.parse_args(argv)
    if sum([args.workload is not None, args.all, args.repeat is not None]) != 1:
        parser.error("give exactly one of --workload, --all, --repeat")
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(contract["run_seconds"])
    return args


def print_metrics(metrics: dict) -> None:
    width = max(len(name) for name in metrics)
    for name, metric in metrics.items():
        value = metric["value"]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:<{width}}  {shown:>12} {metric['unit']}")


def run_workload(args: argparse.Namespace, contract: dict) -> int:
    from dgbench import loadgen, phases, probes, provenance

    scale = loadgen.SMOKE if args.smoke else loadgen.FULL
    shape = loadgen.SHAPES[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    started = time.perf_counter()
    try:
        if args.trace:
            trace_out = args.trace_out or os.path.join(
                OUT_DIR, f"trace-{args.workload}-{args.seed}.json"
            )
            outcome = probes.run_traced(
                scale, shape, args.seed, args.seconds, workdir, trace_out
            )
        else:
            outcome = phases.run_end_to_end(
                scale, shape, args.seed, args.seconds, workdir
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wall = time.perf_counter() - started

    expected = contract["per_layer" if args.trace else "end_to_end"]
    measured = outcome["metrics"]
    missing = [entry["name"] for entry in expected if entry["name"] not in measured]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 3
    metrics = {
        entry["name"]: {"value": measured[entry["name"]], "unit": entry["unit"]}
        for entry in expected
    }
    tally = outcome["tally"]
    summary = {
        "correct": tally.mismatched == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    detail = {
        "workload": args.workload,
        "trace": bool(args.trace),
        "claim": None,
        "provenance": {
            **provenance.host(),
            "seed": args.seed,
            "seconds": args.seconds,
            "index_knobs": phases.INDEX_KNOBS,
            "scale": vars(scale),
            "shape": vars(shape),
            "wall_s": wall,
        },
        "tally": vars(tally),
        **{key: value for key, value in outcome.items() if key not in ("metrics", "tally")},
        **summary,
    }
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(detail, handle, indent=1, sort_keys=True)
    print(f"{args.workload} seed={args.seed} trace={args.trace} ({wall:.1f} s)")
    print_metrics(metrics)
    for skipped in outcome.get("layers_skipped", ()):
        print(f"  layer skipped: {skipped}")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv: "list[str] | None" = None) -> int:
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"no program to measure: {SOURCE}/repro is missing", file=sys.stderr)
        return 2
    for variable in THREAD_PINS:
        os.environ[variable] = "1"
    sys.path[:0] = [SOURCE, HERE]
    contract = load_contract()
    args = parse_args(argv, contract)
    if args.workload:
        return run_workload(args, contract)
    from dgbench import repeat

    return repeat.run(args, contract, os.path.abspath(__file__))


if __name__ == "__main__":
    sys.exit(main())
