"""Command-line interface: build, query, inspect, and maintain DG indexes.

A small operational surface over the library, in the shape a downstream
user expects from an index tool::

    python -m repro generate --kind U --n 10000 --dims 3 --out data.npz
    python -m repro build    --data data.npz --out index.npz --theta 16
    python -m repro query    --index index.npz --weights 0.5,0.3,0.2 --k 10
    python -m repro query    --index index.npz --weights 0.5,0.3,0.2 \\
                             --budget-ms 50 --budget-records 500
    python -m repro inspect  --index index.npz --validate
    python -m repro doctor   --index index.npz --repair
    python -m repro insert   --index index.npz --limit 100
    python -m repro delete   --index index.npz --record-id 81
    python -m repro compare  --data data.npz --k 10 --queries 20
    python -m repro experiment --name fig5 --kind U

Datasets are stored as ``.npz`` archives with ``values`` and
``attribute_names`` keys; indexes use the :mod:`repro.core.io` format.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from repro.bench import experiments
from repro.bench.report import format_table
from repro.core.builder import build_dominant_graph, build_extended_graph
from repro.core.dataset import Dataset
from repro.core.functions import LinearFunction
from repro.core.guard import run_query
from repro.core.io import load_graph, repair_graph, save_graph
from repro.core.maintenance import delete_record, insert_record
from repro.data.generators import make_dataset
from repro.data.server import server_dataset
from repro.errors import (
    IndexCorruptionError,
    QueryBudgetExceeded,
    WALCorruptionError,
)
from repro.metrics.timing import Timer


def save_dataset(dataset: Dataset, path: str) -> str:
    """Write a dataset to a ``.npz`` archive (values + attribute names)."""
    if not path.endswith(".npz"):
        path = path + ".npz"
    np.savez_compressed(
        path,
        values=dataset.values,
        attribute_names=np.asarray(dataset.attribute_names, dtype=str),
    )
    return path


def load_dataset(path: str) -> Dataset:
    """Read a dataset written by :func:`save_dataset`."""
    with np.load(path, allow_pickle=False) as archive:
        return Dataset(
            archive["values"],
            attribute_names=[str(a) for a in archive["attribute_names"]],
        )


def _parse_weights(text: str) -> LinearFunction:
    try:
        weights = [float(w) for w in text.split(",") if w.strip()]
    except ValueError as exc:
        raise SystemExit(f"bad --weights {text!r}: {exc}")
    if not weights:
        raise SystemExit("--weights must list at least one number")
    return LinearFunction(weights)


def cmd_generate(args: argparse.Namespace) -> int:
    """Generate a synthetic dataset archive (`repro generate`)."""
    if args.kind.lower() == "server":
        dataset = server_dataset(args.n, seed=args.seed)
    else:
        dataset = make_dataset(args.kind, args.n, args.dims, seed=args.seed)
    path = save_dataset(dataset, args.out)
    print(f"wrote {len(dataset)} x {dataset.dims} records to {path}")
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    """Build and persist a DG index (`repro build`)."""
    dataset = load_dataset(args.data)
    with Timer() as timer:
        if args.plain:
            graph = build_dominant_graph(dataset)
        else:
            graph = build_extended_graph(dataset, theta=args.theta, seed=args.seed)
    path = save_graph(graph, args.out)
    print(
        f"built DG over {len(dataset)} records in {timer.elapsed:.2f}s: "
        f"{graph.num_layers} layers, {graph.num_pseudo} pseudo records, "
        f"{graph.edge_count()} edges -> {path}"
    )
    return 0


def _load_batch_functions(path: str, dims: int) -> list:
    """Parse a --batch file: one comma-separated weight vector per line."""
    functions = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            function = _parse_weights(text)
            if function.dims != dims:
                raise SystemExit(
                    f"{path}:{lineno}: weight vector has {function.dims} "
                    f"entries, index has {dims} attributes"
                )
            functions.append(function)
    if not functions:
        raise SystemExit(f"--batch file {path!r} contains no weight vectors")
    return functions


def _cmd_query_batch(args: argparse.Namespace, graph) -> int:
    """The `repro query --batch` path: many queries, one compiled sweep."""
    from repro.core.compiled import batch_top_k

    if args.budget_ms is not None or args.budget_records is not None:
        raise SystemExit("--batch does not support query budgets")
    if args.explain:
        raise SystemExit("--batch does not support --explain")
    functions = _load_batch_functions(args.batch, graph.dataset.dims)
    compiled = graph.compile()
    with Timer() as timer:
        if args.workers > 0:
            from repro.parallel import ParallelQueryExecutor

            with ParallelQueryExecutor(
                compiled, workers=args.workers
            ) as pool:
                results = pool.map_queries(functions, args.k, mode="batch")
        else:
            results = batch_top_k(compiled, functions, args.k)
    per_query = 1000 * timer.elapsed / len(results)
    scored = sum(r.stats.computed for r in results)
    print(
        f"{len(results)} queries in {1000 * timer.elapsed:.2f}ms "
        f"({per_query:.3f} ms/query, {scored} records scored, "
        f"workers={args.workers})"
    )
    for index, result in enumerate(results):
        row = ", ".join(f"{rid}:{score:g}" for rid, score in result)
        print(f"  q{index}: [{row}]")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    """Answer linear top-k queries against an index (`repro query`)."""
    graph = load_graph(args.index)
    if args.batch:
        if args.weights:
            raise SystemExit("--weights and --batch are mutually exclusive")
        return _cmd_query_batch(args, graph)
    if not args.weights:
        raise SystemExit("one of --weights or --batch is required")
    function = _parse_weights(args.weights)
    if function.dims != graph.dataset.dims:
        raise SystemExit(
            f"--weights has {function.dims} entries, index has "
            f"{graph.dataset.dims} attributes"
        )
    if args.workers > 0:
        if args.budget_ms is not None or args.budget_records is not None:
            raise SystemExit("--workers does not support query budgets")
        from repro.parallel import ParallelQueryExecutor

        with Timer() as timer:
            with ParallelQueryExecutor(
                graph.compile(), workers=args.workers
            ) as pool:
                result = pool.query(function, args.k)
        print(
            f"top-{args.k} in {1000 * timer.elapsed:.2f}ms "
            f"({result.stats.computed} records scored, "
            f"{args.workers}-worker fabric):"
        )
        names = graph.dataset.attribute_names
        for rank, (rid, score) in enumerate(result, start=1):
            detail = ", ".join(
                f"{name}={value:g}"
                for name, value in zip(names, graph.vector(rid))
            )
            print(f"  {rank:3d}. record {rid}  score={score:g}  [{detail}]")
        return 0
    if args.explain:
        from repro.core.explain import explain_top_k

        profile = explain_top_k(graph, function, args.k)
        print(profile.format())
        return 0
    try:
        with Timer() as timer:
            result = run_query(
                graph,
                function,
                args.k,
                engine=args.engine,
                budget_ms=args.budget_ms,
                budget_records=args.budget_records,
                fallback=not args.no_fallback,
            )
    except QueryBudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    names = graph.dataset.attribute_names
    print(f"top-{args.k} in {1000 * timer.elapsed:.2f}ms "
          f"({result.stats.computed} records scored, {result.tier} tier):")
    for rank, (rid, score) in enumerate(result, start=1):
        detail = ", ".join(
            f"{name}={value:g}" for name, value in zip(names, graph.vector(rid))
        )
        print(f"  {rank:3d}. record {rid}  score={score:g}  [{detail}]")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    """Print index statistics, optionally validating (`repro inspect`)."""
    graph = load_graph(args.index)
    dataset = graph.dataset
    print(f"index: {args.index}")
    print(f"  records: {len(dataset)} x {dataset.dims} "
          f"({', '.join(dataset.attribute_names)})")
    print(f"  indexed: {len(graph)} ({graph.num_pseudo} pseudo)")
    print(f"  layers:  {graph.num_layers}, edges: {graph.edge_count()}")
    sizes = graph.layer_sizes()
    preview = ", ".join(str(s) for s in sizes[:12])
    suffix = ", ..." if len(sizes) > 12 else ""
    print(f"  layer sizes: [{preview}{suffix}]")
    if args.validate:
        from repro.core.verify import format_issues, verify_graph

        issues = verify_graph(graph)
        print("  " + format_issues(issues).replace("\n", "\n  "))
        return 1 if issues else 0
    return 0


def _cross_check_compiled(graph) -> list:
    """Probe-query divergence check: compiled engine vs reference Traveler.

    The two engines are bit-identical by contract (PR 1); a divergence
    here means the index data itself round-trips differently through the
    flat-array compile, which deep verification alone cannot see.
    """
    from repro.core.advanced import AdvancedTraveler
    from repro.core.compiled import CompiledAdvancedTraveler

    if not len(graph) or not graph.real_ids():
        return []
    problems = []
    compiled = graph.compile()
    rng = np.random.default_rng(0)
    k = min(10, len(graph.real_ids()))
    for trial in range(4):
        weights = rng.dirichlet(np.ones(graph.dataset.dims))
        function = LinearFunction(weights)
        reference = AdvancedTraveler(graph).top_k(function, k)
        fast = CompiledAdvancedTraveler(compiled).top_k(function, k)
        if reference.ids != fast.ids or reference.scores != fast.scores:
            problems.append(
                f"compiled engine diverges from the reference Traveler on "
                f"probe query {trial} "
                f"(weights {np.round(weights, 3).tolist()}, k={k})"
            )
    return problems


def _report_pending(wal_path: str, scan, wal_report: dict, say) -> bool:
    """The WAL suffix past a serving ``CURRENT`` beside the log.

    Those records are every change the checkpoint does not hold yet —
    recovery serves exactly them as its overlay — so doctor counts them
    by op kind.  Pending ops are information, not an issue.  Returns
    True when the ``CURRENT`` pointer itself is unreadable.
    """
    from repro.serve.index import CURRENT_NAME, _read_current

    directory = os.path.dirname(os.path.abspath(wal_path))
    if not os.path.exists(os.path.join(directory, CURRENT_NAME)):
        return False
    try:
        _, applied_seq = _read_current(directory)
    except IndexCorruptionError as exc:
        say(f"  wal: CURRENT beside the log is unreadable: {exc}")
        wal_report["current_error"] = str(exc)
        return True
    pending = [(seq, op) for seq, op in scan.records if seq > applied_seq]
    by_kind = dict(sorted(Counter(str(op.get("op")) for _, op in pending)
                          .items()))
    first, last = (pending[0][0], pending[-1][0]) if pending else (None, None)
    wal_report["pending"] = {
        "applied_seq": applied_seq,
        "ops": len(pending),
        "by_kind": by_kind,
        "first_seq": first,
        "last_seq": last,
    }
    if pending:
        kinds = ", ".join(f"{n} {kind}" for kind, n in by_kind.items())
        say(f"  wal: {len(pending)} op(s) past the checkpoint "
            f"(applied_seq {applied_seq}), seq {first}-{last}: {kinds}")
    else:
        say(f"  wal: no ops past the checkpoint (applied_seq {applied_seq})")
    return False


def cmd_doctor(args: argparse.Namespace) -> int:
    """Diagnose — and optionally repair — a persisted index (`repro doctor`).

    This is the *runtime* half of the project's checking story: it
    verifies the data a process would actually serve (structural
    invariants via ``verify_graph``, plus a compiled-vs-reference engine
    cross-check on probe queries), audits ``/dev/shm`` for segments
    leaked by dead query fabrics, — with ``--wal`` — scans a
    write-ahead log for torn tails and mid-log corruption and, when a
    serving ``CURRENT`` sits beside it, reports the unfolded suffix
    (the ops past the checkpoint, by kind, with their seq range), and
    — with ``--store`` — audits an index-store directory
    (:class:`~repro.store.directory.StoreDirectory`) for orphaned
    generations, a damaged ``CURRENT`` pointer, stamp drift, stray
    temps, and quarantine backlog; a serving directory's ``CURRENT`` is
    recognised there and pointed at ``--wal`` instead.  The
    *static* half — source-level contract checks that need no index at
    all — is ``repro lint``.  ``--format json`` emits the whole report
    as one machine-readable object for dashboards and CI.

    Exit status: 0 healthy (or repaired clean), 1 deep-verification
    issues or engine divergence, 2 corruption (unrepaired, unrepairable,
    or a damaged WAL beyond its recoverable torn tail).  Pending WAL
    ops never change the exit status.
    """
    from repro.core.verify import format_issues, verify_graph
    from repro.parallel.shm import leaked_segments

    text = args.format != "json"
    report: dict = {"index": args.index}

    def say(line: str) -> None:
        if text:
            print(line)

    def finish(code: int) -> int:
        report["exit_code"] = code
        if not text:
            print(json.dumps(report, indent=2, sort_keys=True))
        return code

    say(f"doctor: {args.index}")
    try:
        graph = load_graph(args.index)
    except FileNotFoundError as exc:
        say(f"  cannot read index: {exc}")
        report["error"] = f"cannot read index: {exc}"
        return finish(2)
    except IndexCorruptionError as exc:
        say(f"  CORRUPT: {exc}")
        report["corruption"] = str(exc)
        if not args.repair:
            say("  re-run with --repair to rebuild from surviving data")
            return finish(2)
        try:
            graph, notes = repair_graph(args.index)
        except IndexCorruptionError as fatal:
            say(f"  unrepairable: {fatal}")
            report["error"] = f"unrepairable: {fatal}"
            return finish(2)
        for note in notes:
            say(f"  repair: {note}")
        out = args.out if args.out else args.index
        save_graph(graph, out)
        say(f"  repaired index written to {out}")
        report["repaired"] = {"notes": list(notes), "out": out}
    say(f"  records indexed: {len(graph)} ({graph.num_pseudo} pseudo), "
        f"layers: {graph.num_layers}, edges: {graph.edge_count()}")
    report["graph"] = {
        "records": len(graph),
        "pseudo": graph.num_pseudo,
        "layers": graph.num_layers,
        "edges": graph.edge_count(),
    }
    issues = verify_graph(graph)
    say("  " + format_issues(issues).replace("\n", "\n  "))
    report["issues"] = [str(issue) for issue in issues]
    mismatches = _cross_check_compiled(graph)
    report["cross_check_mismatches"] = list(mismatches)
    if mismatches:
        for note in mismatches:
            say(f"  cross-check: {note}")
    else:
        say("  cross-check: compiled engine matches the reference "
            "Traveler on probe queries")
    leaked = leaked_segments()
    report["shm"] = {"leaked_segments": leaked}
    if leaked:
        say(f"  shm: {len(leaked)} repro-dg segment(s) present in "
            f"/dev/shm: {', '.join(leaked)} (leaked unless a live "
            "fabric owns them)")
    else:
        say("  shm: no repro-dg segments in /dev/shm")
    store_damaged = False
    store_issues: list = []
    store = getattr(args, "store", None)
    serving = None
    if store:
        from repro.serve.index import WAL_NAME, _read_current

        try:
            serving = _read_current(store)
        except (FileNotFoundError, IndexCorruptionError):
            pass  # no CURRENT, or a store pointer: the audit reads it
    if serving is not None:
        say(f"  store: {store} is a serving directory (checkpoint "
            f"{serving[0]}, applied_seq {serving[1]}), not a store "
            f"directory; use --wal {os.path.join(store, WAL_NAME)}")
        report["store"] = {"root": store, "serving": True, "issues": []}
    elif store:
        from repro.store.directory import StoreDirectory

        audit = StoreDirectory(store).audit()
        report["store"] = audit
        store_issues = list(audit["issues"])
        # Damage (an unopenable live generation) is exit-2 territory;
        # hygiene findings — orphans, stray temps, quarantine backlog,
        # stamp drift — are exit-1 issues like deep-verify findings.
        store_damaged = any(
            "corrupt" in issue or "missing" in issue
            for issue in store_issues
        )
        if audit["current"] is None and not store_issues:
            say(f"  store: {args.store}: empty (no CURRENT, no "
                "generation files)")
        elif not store_issues:
            say(f"  store: generation {audit['generation']} live "
                f"({audit['current']}), "
                f"{len(audit['generations'])} generation file(s), "
                "no issues")
        else:
            say(f"  store: {len(store_issues)} issue(s):")
            for issue in store_issues:
                say(f"    - {issue}")
            if audit["orphans"]:
                say(f"    orphans: {', '.join(audit['orphans'])}")
    wal_damaged = False
    if args.wal:
        from repro.serve.wal import scan_wal

        try:
            scan = scan_wal(args.wal)
        except (FileNotFoundError, WALCorruptionError) as exc:
            say(f"  wal: DAMAGED: {exc}")
            report["wal"] = {"path": args.wal, "error": str(exc)}
            wal_damaged = True
        else:
            report["wal"] = {
                "path": args.wal,
                "base_seq": scan.base_seq,
                "records": len(scan.records),
                "valid_bytes": scan.valid_bytes,
                "torn_bytes": scan.torn_bytes,
            }
            if scan.torn_bytes:
                say(f"  wal: {len(scan.records)} intact record(s); "
                    f"torn tail of {scan.torn_bytes} byte(s) will be "
                    "dropped on recovery")
            else:
                say(f"  wal: {len(scan.records)} intact record(s), "
                    "clean tail")
            wal_damaged = _report_pending(args.wal, scan, report["wal"], say)
    if wal_damaged or store_damaged:
        return finish(2)
    return finish(1 if issues or mismatches or store_issues else 0)


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run the chaos scenario suite against live indexes (`repro chaos`).

    Each scenario boots a fresh :class:`~repro.serve.index.ServingIndex`
    (real fabric workers, real WAL), runs its scripted fault schedule,
    and asserts the resilience invariants: never a wrong answer, never a
    query wedged past its deadline, bounded recovery time.  ``--out``
    writes the ``BENCH_resilience.json`` payload (availability, p99
    latency under fault, per-fault recovery time).

    Exit status: 0 when every scenario×seed run upholds every
    invariant, 1 when any invariant is violated, 2 on an unknown
    scenario name.
    """
    import time as time_module
    import warnings

    from repro.errors import DegradedResultWarning
    from repro.testing.scenarios import SCENARIOS, ChaosConfig, run_suite

    if args.list:
        for name, script in SCENARIOS.items():
            summary = (script.__doc__ or "").strip().splitlines()[0]
            print(f"{name}: {summary}")
        return 0
    names = args.scenario if args.scenario else None
    unknown = sorted(set(names or []) - set(SCENARIOS))
    if unknown:
        print(
            f"unknown scenario(s): {', '.join(unknown)} "
            f"(known: {', '.join(SCENARIOS)})",
            file=sys.stderr,
        )
        return 2
    config = ChaosConfig(
        records=args.records,
        rounds=args.rounds,
        deadline_ms=args.deadline_ms,
        reply_timeout=args.reply_timeout,
    )
    with warnings.catch_warnings():
        # Degradations are the point of the exercise; the reports tally
        # them, so the per-query warnings are pure noise here.
        warnings.simplefilter("ignore", DegradedResultWarning)
        reports = run_suite(names, seeds=args.seeds, config=config)
    for report in reports:
        verdict = "PASS" if report.passed else "FAIL"
        print(
            f"{verdict} {report.name} (seed {report.seed}): "
            f"availability {report.availability:.1%}, "
            f"p99 {report.p99_ms:.0f} ms, "
            f"recovery "
            + (
                f"{report.recovery_ms:.0f} ms"
                if report.recovery_ms is not None
                else "never"
            )
        )
        if not report.passed:
            failed = sorted(
                name
                for name, held in report.invariants().items()
                if not held
            )
            print(f"  violated: {', '.join(failed)}")
            for event in report.events:
                print(f"  {event}")
    passed = all(report.passed for report in reports)
    if args.out:
        payload = {
            "bench": "resilience",
            "generated_at": time_module.strftime(
                "%Y-%m-%dT%H:%M:%S%z", time_module.localtime()
            ),
            "config": {
                "records": config.records,
                "rounds": config.rounds,
                "deadline_ms": config.deadline_ms,
                "reply_timeout": config.reply_timeout,
                "workers": config.workers,
                "recovery_limit_ms": config.recovery_limit_ms,
            },
            "seeds": list(args.seeds),
            "scenarios": [report.to_dict() for report in reports],
            "passed": passed,
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
    return 0 if passed else 1


def _changed_py_paths() -> "list[str] | None":
    """Changed/untracked ``.py`` files per git; ``None`` outside a repo.

    ``repro lint --changed`` scopes the report to files touched since
    ``HEAD`` (working tree + index) plus untracked files.  Outside a
    git checkout there is no diff to scope by, so the caller falls back
    to the full tree rather than silently linting nothing.
    """
    import subprocess

    def _git(*argv: str) -> "list[str] | None":
        try:
            proc = subprocess.run(
                ["git", *argv], capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        if proc.returncode != 0:
            return None
        return proc.stdout.splitlines()

    changed = _git("diff", "--name-only", "HEAD")
    if changed is None:
        return None
    untracked = _git("ls-files", "-o", "--exclude-standard") or []
    top = _git("rev-parse", "--show-toplevel")
    root = Path(top[0]) if top else Path.cwd()
    result = []
    for name in {*changed, *untracked}:
        if not name.endswith(".py"):
            continue
        path = root / name
        if path.exists():
            result.append(str(path))
    return sorted(result)


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the project's AST static analyzer (`repro lint`).

    This is the *static* half of the checking story: source-level rules
    for the contracts the paper and the serving layer impose (snapshot
    immutability, stats threading, typed errors, determinism, writer
    discipline, dtype discipline, guard coverage, public-API docs).
    ``--flow`` adds the whole-program layer: the project call graph
    (with a measured resolution rate), the resource-lifecycle /
    exception-escape / deadline-propagation passes, and the committed
    findings baseline that turns CI into a ratchet.  The *runtime*
    half — verifying an actual index's data — is ``repro doctor``.

    Exit status: 0 clean (or findings without ``--strict``), 1 findings
    under ``--strict`` (in flow mode: *new-after-baseline* findings, or
    a call-graph resolution rate below the floor), 2 bad rule selection
    or an unreadable baseline.
    """
    from repro.analysis import (
        default_rules,
        flow_rules,
        format_json,
        format_text,
        lint_tree,
    )

    rules = list(default_rules())
    if args.flow:
        rules.extend(flow_rules())
    if args.select:
        wanted = {r.strip() for r in args.select.split(",") if r.strip()}
        known = {rule.id for rule in rules}
        unknown = sorted(wanted - known)
        if unknown:
            print(
                f"unknown rule id(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})",
                file=sys.stderr,
            )
            return 2
        rules = [rule for rule in rules if rule.id in wanted]

    paths = args.paths or None
    if args.changed:
        changed = _changed_py_paths()
        if changed is None:
            print(
                "lint --changed: not a git checkout; linting the full tree",
                file=sys.stderr,
            )
        elif not changed:
            print("lint --changed: no modified Python files")
            return 0
        else:
            paths = changed

    run = lint_tree(paths, rules=rules, flow=args.flow)
    findings = run.findings

    extra: "dict[str, object]" = {}
    fresh = findings
    floor_failed = False
    if args.flow:
        from repro.analysis.flow import (
            DEFAULT_BASELINE,
            RESOLUTION_FLOOR,
            load_baseline,
            new_findings,
            write_baseline,
        )

        baseline_path = args.baseline or DEFAULT_BASELINE
        if args.write_baseline:
            write_baseline(baseline_path, findings)
            print(
                f"wrote {len(findings)} finding(s) to baseline "
                f"{baseline_path}"
            )
            return 0
        try:
            baseline = load_baseline(baseline_path)
        except ValueError as exc:
            print(f"lint: {exc}", file=sys.stderr)
            return 2
        fresh = new_findings(findings, baseline)
        floor = (
            args.min_resolution
            if args.min_resolution is not None
            else RESOLUTION_FLOOR
        )
        rate = float(run.stats.get("rate", 1.0))
        floor_failed = rate < floor
        extra["callgraph"] = dict(run.stats, floor=floor)
        extra["baseline"] = {
            "path": str(baseline_path),
            "known": len(baseline),
            "new": len(fresh),
        }

    if args.format == "json":
        print(format_json(findings, rules=rules, extra=extra))
    else:
        print(format_text(findings))
        if args.flow:
            stats = run.stats
            print(
                f"call graph: {stats.get('calls')} calls, "
                f"{stats.get('resolved')} resolved, "
                f"{stats.get('unresolved')} unresolved, "
                f"{stats.get('external')} external; "
                f"resolution rate {stats.get('rate')} "
                f"(floor {extra['callgraph']['floor']})"  # type: ignore[index]
            )
            known = extra["baseline"]["known"]  # type: ignore[index]
            print(
                f"baseline: {known} known finding(s), "
                f"{len(fresh)} new"
            )
            if floor_failed:
                print(
                    "call-graph resolution rate fell below the floor",
                    file=sys.stderr,
                )
    if not args.strict:
        return 0
    return 1 if (fresh or floor_failed) else 0


def cmd_insert(args: argparse.Namespace) -> int:
    """Index pending dataset rows incrementally (`repro insert`)."""
    graph = load_graph(args.index)
    indexed = set(graph.real_ids())
    pending = [rid for rid in range(len(graph.dataset)) if rid not in indexed]
    if args.record_id is not None:
        pending = [args.record_id]
    if not pending:
        print("nothing to insert: every dataset row is already indexed")
        return 0
    with Timer() as timer:
        for rid in pending[: args.limit]:
            insert_record(graph, rid)
    count = min(len(pending), args.limit)
    save_graph(graph, args.index)
    print(f"inserted {count} records in {timer.elapsed:.2f}s")
    return 0


def cmd_delete(args: argparse.Namespace) -> int:
    """Remove one record from a persisted index (`repro delete`)."""
    graph = load_graph(args.index)
    with Timer() as timer:
        delete_record(graph, args.record_id)
    save_graph(graph, args.index)
    print(f"deleted record {args.record_id} in {1000 * timer.elapsed:.2f}ms")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Run the algorithm comparison matrix over a workload (`repro compare`)."""
    from repro.bench.compare import compare_algorithms, format_report
    from repro.data.queries import random_queries

    dataset = load_dataset(args.data)
    queries = random_queries(
        dataset.dims, args.queries, alpha=args.alpha, seed=args.seed
    )
    reports = compare_algorithms(
        dataset, queries, args.k, seed=args.seed, engine=args.engine
    )
    print(format_report(reports, args.k, len(queries)))
    return 0 if all(r.correct for r in reports) else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Operate a durable serving directory (`repro serve`).

    Modes (mutually exclusive):

    - ``--init --data data.npz``: build an index and initialize a fresh
      serving directory (checkpoint + CURRENT + empty WAL).
    - ``--probe``: recover the directory and print the health and
      readiness documents as JSON; exit 0 when ready, 1 otherwise.
    - ``--smoke N``: recover, then run N random mutations with
      concurrent reader threads — an end-to-end liveness exercise —
      finishing with a checkpoint and a clean close.
    """
    import json as json_module

    from repro.serve import ServingIndex

    if args.init:
        if not args.data:
            raise SystemExit("--init requires --data")
        dataset = load_dataset(args.data)
        if args.plain:
            graph = build_dominant_graph(dataset)
        else:
            graph = build_extended_graph(dataset, theta=args.theta, seed=args.seed)
        with Timer() as timer:
            index = ServingIndex.create(args.dir, graph, fsync=args.fsync)
        index.close()
        print(
            f"initialized serving directory {args.dir} in "
            f"{timer.elapsed:.2f}s ({len(dataset)} records, "
            f"fsync={args.fsync})"
        )
        return 0

    index = ServingIndex.open(
        args.dir, fsync=args.fsync, workers=args.workers
    )
    try:
        if args.probe:
            document = {
                "health": index.health(),
                "readiness": index.readiness(),
            }
            print(json_module.dumps(document, indent=2, sort_keys=True))
            return 0 if document["readiness"]["ready"] else 1

        # --smoke: random mutations under concurrent readers.
        import threading

        rng = np.random.default_rng(args.seed)
        dims = index.snapshot().compiled.values.shape[1]
        function = LinearFunction(rng.random(dims) + 0.05)
        stop = threading.Event()
        read_counts = [0] * 2

        def reader(slot: int) -> None:
            while not stop.is_set():
                index.query(function, k=10)
                read_counts[slot] += 1

        threads = [
            threading.Thread(target=reader, args=(i,), daemon=True)
            for i in range(len(read_counts))
        ]
        for thread in threads:
            thread.start()
        indexed = {int(r) for r in index.snapshot().alive_ids().tolist()}
        pending = [
            rid
            for rid in range(len(index._materialized_graph().dataset))
            if rid not in indexed
        ]
        mutations = 0
        with Timer() as timer:
            for _ in range(args.smoke):
                if pending and (rng.random() < 0.6 or len(indexed) < 4):
                    rid = pending.pop()
                    index.insert(rid)
                    indexed.add(rid)
                else:
                    rid = int(rng.choice(sorted(indexed)))
                    index.delete(rid)
                    indexed.discard(rid)
                    pending.append(rid)
                mutations += 1
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        fabric_note = ""
        if args.workers > 0:
            batch = index.query_batch([function] * 8, 10)
            fabric_note = (
                f", {len(batch)} fabric batch answers "
                f"({args.workers} workers)"
            )
        index.checkpoint()
        print(
            f"smoke: {mutations} mutations and {sum(read_counts)} "
            f"concurrent reads in {timer.elapsed:.2f}s "
            f"(final epoch {index.epoch}, fsync={args.fsync}{fabric_note})"
        )
        return 0
    finally:
        index.close()


EXPERIMENTS = {
    "fig5": lambda args: experiments.fig5_pseudo_records(args.kind),
    "fig6-construction": lambda args: experiments.fig6_construction(),
    "fig6-query": lambda args: experiments.fig6_query(),
    "fig7": lambda args: experiments.fig7_nonlayer(),
    "fig8-insert": lambda args: experiments.fig8_maintenance("insert"),
    "fig8-delete": lambda args: experiments.fig8_maintenance("delete"),
    "fig9-highdim": lambda args: experiments.fig9_highdim(),
    "fig9-worst": lambda args: experiments.fig9_worstcase(),
    "cost-model": lambda args: experiments.cost_model(),
}


def cmd_experiment(args: argparse.Namespace) -> int:
    """Print one paper experiment's table (`repro experiment`)."""
    result = EXPERIMENTS[args.name](args)
    print(format_table(result))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dominant Graph top-k indexing (ICDE 2008 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic dataset")
    p.add_argument("--kind", default="U",
                   help="U | G | R | A | worst | server (paper Section VI)")
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--dims", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(run=cmd_generate)

    p = sub.add_parser("build", help="build a DG index over a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--theta", type=int, default=None,
                   help="pseudo-level threshold (default: page/record)")
    p.add_argument("--plain", action="store_true",
                   help="skip pseudo levels (plain DG)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=cmd_build)

    p = sub.add_parser("query", help="answer linear top-k queries")
    p.add_argument("--index", required=True)
    p.add_argument("--weights", default=None,
                   help="comma-separated non-negative weights")
    p.add_argument("--batch", default=None, metavar="FILE",
                   help="answer many queries at once: FILE holds one "
                        "comma-separated weight vector per line "
                        "(# comments allowed); uses the layer-progressive "
                        "batch kernel")
    p.add_argument("--workers", type=int, default=0,
                   help="fan out across N worker processes sharing the "
                        "snapshot over shared memory (0 = in-process)")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--engine", choices=["auto", "compiled", "naive"],
                   default="auto",
                   help="first serving tier to try: the compiled layer-sweep "
                        "kernel (auto = compiled) or the exact snapshot scan "
                        "it degrades to")
    p.add_argument("--budget-ms", type=float, default=None,
                   help="wall-clock budget in milliseconds; exceeding it "
                        "aborts the query (exit status 3)")
    p.add_argument("--budget-records", type=int, default=None,
                   help="accessed-record budget (the paper's cost metric); "
                        "exceeding it aborts the query (exit status 3)")
    p.add_argument("--no-fallback", action="store_true",
                   help="fail immediately on an engine fault instead of "
                        "degrading to a simpler serving tier")
    p.add_argument("--explain", action="store_true",
                   help="print the per-layer traversal profile instead "
                        "(always uses the reference engine)")
    p.set_defaults(run=cmd_query)

    p = sub.add_parser(
        "doctor",
        help="diagnose (and repair) a saved index",
        description="Runtime checks: load an index, verify its structural "
                    "invariants, and cross-check the compiled engine "
                    "against the reference Traveler on probe queries.  "
                    "For the static (source-level) checks, see "
                    "'repro lint'.",
    )
    p.add_argument("--index", required=True)
    p.add_argument("--repair", action="store_true",
                   help="on corruption, rebuild from surviving data "
                        "and persist the repaired index")
    p.add_argument("--out", default=None,
                   help="where to write the repaired index "
                        "(default: overwrite --index atomically)")
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="output format (json emits one report object)")
    p.add_argument("--wal", default=None,
                   help="also scan this write-ahead log for torn tails "
                        "and mid-log corruption, and report the ops past "
                        "the checkpoint of a serving CURRENT beside it")
    p.add_argument("--store", default=None,
                   help="also audit this index-store directory: CURRENT "
                        "pointer health, orphaned generations, stray "
                        "temps, quarantine backlog, stamp drift")
    p.set_defaults(run=cmd_doctor)

    p = sub.add_parser(
        "chaos",
        help="run scripted fault schedules against a live serving index",
        description="The chaos control plane: boots a real ServingIndex "
                    "per scenario and seed, injects the scripted faults "
                    "(hung workers, SIGKILL storms, shm tampering, "
                    "failing fsync), and asserts the resilience "
                    "invariants — never a wrong answer, never a query "
                    "wedged past its deadline, bounded recovery time.",
    )
    p.add_argument("--scenario", action="append", default=None,
                   help="scenario to run (repeatable; default: all)")
    p.add_argument("--seeds", type=int, nargs="+", default=[0],
                   help="dataset/workload seeds to sweep (default: 0)")
    p.add_argument("--records", type=int, default=500,
                   help="dataset size per scenario index")
    p.add_argument("--rounds", type=int, default=6,
                   help="fault/query rounds per scenario")
    p.add_argument("--deadline-ms", type=float, default=1500.0,
                   help="end-to-end deadline applied to every query")
    p.add_argument("--reply-timeout", type=float, default=0.3,
                   help="seconds before a silent fabric worker is "
                        "presumed hung and replaced")
    p.add_argument("--out", default=None,
                   help="write the BENCH_resilience.json payload here")
    p.add_argument("--list", action="store_true",
                   help="list the registered scenarios and exit")
    p.set_defaults(run=cmd_chaos)

    p = sub.add_parser(
        "lint",
        help="run the project's static analyzer over the source tree",
        description="Static checks: AST rules for the contracts the "
                    "paper and the serving layer impose (snapshot "
                    "immutability, stats threading, typed errors, "
                    "determinism, writer discipline, dtype discipline, "
                    "guard coverage, public-API docs).  Suppress an "
                    "intentional exception with "
                    "'# repro: noqa[rule-id] -- reason'.  For the "
                    "runtime checks on an actual index, see "
                    "'repro doctor'.",
    )
    p.add_argument("paths", nargs="*", default=None,
                   help="files or directories to lint "
                        "(default: the installed repro package)")
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="output format (json includes the rule catalog)")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 when any finding is reported (with "
                        "--flow: any finding beyond the baseline, or a "
                        "resolution rate below the floor)")
    p.add_argument("--select", default=None,
                   help="comma-separated rule ids to run (default: all)")
    p.add_argument("--flow", action="store_true",
                   help="build the whole-program call graph and run the "
                        "interprocedural passes (resource lifecycle, "
                        "exception escape, deadline propagation)")
    p.add_argument("--changed", action="store_true",
                   help="only report findings in files changed since "
                        "HEAD (full tree outside a git checkout)")
    p.add_argument("--baseline", default=None,
                   help="findings baseline for the --flow ratchet "
                        "(default: lint_baseline.json)")
    p.add_argument("--write-baseline", action="store_true",
                   help="record the current --flow findings as the new "
                        "baseline and exit")
    p.add_argument("--min-resolution", type=float, default=None,
                   help="minimum acceptable call-graph resolution rate "
                        "under --flow --strict (default: the pinned "
                        "floor)")
    p.set_defaults(run=cmd_lint)

    p = sub.add_parser("inspect", help="print index statistics")
    p.add_argument("--index", required=True)
    p.add_argument("--validate", action="store_true",
                   help="also run the full invariant check")
    p.set_defaults(run=cmd_inspect)

    p = sub.add_parser("insert", help="index not-yet-indexed dataset rows")
    p.add_argument("--index", required=True)
    p.add_argument("--record-id", type=int, default=None)
    p.add_argument("--limit", type=int, default=1_000_000)
    p.set_defaults(run=cmd_insert)

    p = sub.add_parser("delete", help="remove one record from the index")
    p.add_argument("--index", required=True)
    p.add_argument("--record-id", type=int, required=True)
    p.set_defaults(run=cmd_delete)

    p = sub.add_parser("compare", help="compare all algorithms on a workload")
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--queries", type=int, default=20)
    p.add_argument("--alpha", type=float, default=1.0,
                   help="Dirichlet concentration of the query workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--engine", choices=["reference", "compiled"],
                   default="reference",
                   help="engine behind the DG entry of the comparison")
    p.set_defaults(run=cmd_compare)

    p = sub.add_parser(
        "serve", help="operate a durable WAL-backed serving directory"
    )
    p.add_argument("--dir", required=True,
                   help="serving directory (CURRENT + checkpoint + WAL)")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--init", action="store_true",
                      help="build an index over --data and initialize "
                           "a fresh serving directory")
    mode.add_argument("--probe", action="store_true",
                      help="recover and print health + readiness JSON "
                           "(exit 0 when ready, 1 otherwise)")
    mode.add_argument("--smoke", type=int, metavar="N",
                      help="recover, run N mutations under concurrent "
                           "readers, checkpoint, close")
    p.add_argument("--data", default=None,
                   help="dataset archive for --init")
    p.add_argument("--plain", action="store_true",
                   help="--init with a plain DG (skip pseudo levels)")
    p.add_argument("--theta", type=int, default=None,
                   help="--init pseudo-level threshold")
    p.add_argument("--fsync", choices=["always", "batch", "never"],
                   default="always",
                   help="WAL durability policy (see docs/serving.md)")
    p.add_argument("--workers", type=int, default=0,
                   help="attach an N-process query fabric over "
                        "shared-memory snapshots (0 = in-process only)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=cmd_serve)

    p = sub.add_parser("experiment", help="run a paper experiment")
    p.add_argument("--name", choices=sorted(EXPERIMENTS), required=True)
    p.add_argument("--kind", default="U")
    p.set_defaults(run=cmd_experiment)
    return parser


def main(argv=None) -> int:
    """CLI entry point (``python -m repro ...``)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
