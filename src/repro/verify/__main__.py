"""``python -m repro.verify`` — the adversarial verification CLI.

Examples::

    python -m repro.verify --seeds 50                # full matrix
    python -m repro.verify --protocol async_n --scheduler burst --seeds 5
    python -m repro.verify --quick --seeds 10        # CI-sized sweep
    python -m repro.verify --self-test               # mutants must be caught
    python -m repro.verify --mutant deaf             # show one mutant's report
    python -m repro.verify --backend-oracle --quick  # scalar vs batch parity
    python -m repro.verify --event-oracle --quick    # rounds vs events parity
    python -m repro.verify --causal-oracle --quick   # happens-before checks
    python -m repro.verify --list                    # cells, skips, mutants

Exit status: 0 when everything holds (or, for ``--self-test``, when
every mutant is caught); 1 on any violation, engine error, or missed
mutant; 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.verify.differential import ORACLE_SKIPS, DiffResult, run_differential
from repro.verify.engine import CellResult, run_matrix
from repro.verify.mutants import MUTANTS, run_mutant, run_self_test
from repro.verify.scenarios import CELLS, PROTOCOLS, SCHEDULERS, SKIPS


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Seeded adversarial verification of the movement protocols.",
    )
    parser.add_argument(
        "--seeds", type=int, default=10,
        help="number of seeds per executable cell (default: 10)",
    )
    parser.add_argument(
        "--base-seed", type=int, default=0,
        help="first seed of the range (default: 0)",
    )
    parser.add_argument(
        "--protocol", default="all",
        help="comma-separated protocol filter, or 'all' "
             f"(choices: {', '.join(PROTOCOLS)})",
    )
    parser.add_argument(
        "--scheduler", default="all",
        help="comma-separated adversary filter, or 'all' "
             f"(choices: {', '.join(SCHEDULERS)})",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller swarms, shorter payloads and budgets (CI profile)",
    )
    parser.add_argument(
        "--no-transparency", action="store_true",
        help="skip the caching on/off A/B runs (halves the work)",
    )
    parser.add_argument(
        "--no-minimize", action="store_true",
        help="do not shrink failing reproductions",
    )
    parser.add_argument(
        "--json", metavar="PATH",
        help="also write the full report as JSON ('-' for stdout)",
    )
    parser.add_argument(
        "--obs-dump", metavar="DIR",
        help="on failure, replay the minimized repro with the obs "
             "recorder attached and dump the event trace (JSONL) here",
    )
    oracles = parser.add_mutually_exclusive_group()
    oracles.add_argument(
        "--backend-oracle", action="store_true",
        help="differential oracle: every cell the batch kernel hosts, run "
             "on both the scalar and the batch backend from the same seed, "
             "must be bit-identical; the other cells are counted skips "
             "(requires numpy; exits 0 with a notice when it is absent)",
    )
    oracles.add_argument(
        "--event-oracle", action="store_true",
        help="differential oracle: every cell run on both the round engine "
             "and the event engine (round-emulation mode) from the same "
             "seed must be bit-identical (pure python)",
    )
    oracles.add_argument(
        "--causal-oracle", action="store_true",
        help="causality oracle: every cell runs instrumented on both "
             "engines; the recorded trace must rebuild into a clean "
             "happens-before DAG (receipt after encode, ack after "
             "receipt, acyclic, overheard downstream of moves) with "
             "telescoping critical-path attribution",
    )
    parser.add_argument(
        "--list", action="store_true",
        help="list executable cells, skipped cells and mutants, then exit",
    )
    parser.add_argument(
        "--self-test", action="store_true",
        help="run every buggy mutant and require the monitors to catch it",
    )
    parser.add_argument(
        "--mutant", metavar="NAME",
        help="run one buggy mutant and report what the monitors saw",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="also print per-run progress and skip reasons",
    )
    return parser


def _split(value: str, universe: tuple, kind: str) -> Optional[List[str]]:
    if value == "all":
        return None
    names = [v.strip() for v in value.split(",") if v.strip()]
    unknown = [n for n in names if n not in universe]
    if unknown:
        raise SystemExit(
            f"error: unknown {kind} {unknown} (choose from {', '.join(universe)})"
        )
    return names


def _do_list() -> int:
    print("executable cells (invariants checked; all also get transparency):")
    for (p, s), cell in sorted(CELLS.items()):
        print(f"  {p:14s} x {s:15s} {', '.join(cell.invariants)}")
    print("\nskipped cells (out of the protocol's stated envelope):")
    for (p, s), reason in sorted(SKIPS.items()):
        print(f"  {p:14s} x {s:15s} {reason}")
    print(
        "\ndifferential oracle skips by adversary or protocol (backend = "
        "--backend-oracle, engine = --event-oracle; counted in each report):"
    )
    for (axis, s), reason in sorted(ORACLE_SKIPS.items()):
        print(f"  {axis:14s} x {s:15s} {reason}")
    print("\nself-test mutants (expected violation):")
    for name, (description, expected) in MUTANTS.items():
        print(f"  {name:10s} {expected:15s} {description}")
    return 0


def _do_self_test() -> int:
    results = run_self_test()
    failed = False
    for result in results:
        if result.caught:
            hit = next(
                v for v in result.violations if v.invariant == result.expected
            )
            print(f"caught  {result.name:10s} -> {hit}")
        else:
            failed = True
            seen = sorted({v.invariant for v in result.violations}) or ["nothing"]
            print(
                f"MISSED  {result.name:10s} expected a {result.expected!r} "
                f"violation, monitors reported: {', '.join(seen)}"
            )
    print(
        f"\n{len(results)} mutants, "
        f"{sum(1 for r in results if r.caught)} caught"
    )
    return 1 if failed else 0


def _do_mutant(name: str) -> int:
    if name not in MUTANTS:
        print(
            f"error: unknown mutant {name!r} (choose from {', '.join(MUTANTS)})",
            file=sys.stderr,
        )
        return 2
    result = run_mutant(name)
    description, expected = MUTANTS[name]
    print(f"mutant {name}: {description} (expected violation: {expected})")
    for violation in result.violations:
        print(f"  {violation}")
    if not result.violations:
        print("  no violations reported")
    print("caught" if result.caught else "MISSED")
    # A mutant run is *supposed* to end in violations; exit nonzero so
    # the bug is impossible to mistake for a clean verification.
    return 1


def _write_json(args, report) -> None:
    """Honour ``--json``: the full report to a file, or stdout for '-'."""
    if not args.json:
        return
    payload = json.dumps(report.to_json(), indent=2)
    if args.json == "-":
        print(payload)
    else:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")


def _do_differential(axis: str, args, protocols, schedulers, seeds) -> int:
    if axis == "backend":
        from repro.batch import NUMPY_HINT, available

        if not available():
            print(f"backend oracle skipped: {NUMPY_HINT}")
            return 0

    def progress(result: DiffResult) -> None:
        status = "ok" if result.ok else "FAIL"
        print(
            f"  {result.protocol} x {result.scheduler} ({result.variant}) "
            f"seed={result.seed} size={result.size} steps={result.steps} {status}",
            flush=True,
        )

    report = run_differential(
        axis,
        protocols,
        schedulers,
        seeds,
        quick=args.quick,
        progress=progress if args.verbose else None,
    )
    print(report.format(verbose=args.verbose))
    _write_json(args, report)
    return 0 if report.ok else 1


def _do_causal_oracle(args, protocols, schedulers, seeds) -> int:
    from repro.verify.causal import CausalCellResult, run_causal_matrix

    def progress(result: CausalCellResult) -> None:
        status = "ok" if result.ok else "FAIL"
        print(
            f"  {result.protocol} x {result.scheduler} [{result.engine}] "
            f"seed={result.seed} size={result.size} steps={result.steps} {status}",
            flush=True,
        )

    report = run_causal_matrix(
        protocols,
        schedulers,
        seeds,
        quick=args.quick,
        progress=progress if args.verbose else None,
    )
    print(report.format(verbose=args.verbose))
    _write_json(args, report)
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    args = _parser().parse_args(argv)
    if args.list:
        return _do_list()
    if args.self_test:
        return _do_self_test()
    if args.mutant:
        return _do_mutant(args.mutant)
    if args.seeds < 1:
        print("error: --seeds must be >= 1", file=sys.stderr)
        return 2

    protocols = _split(args.protocol, PROTOCOLS, "protocol")
    schedulers = _split(args.scheduler, SCHEDULERS, "scheduler")
    seeds = range(args.base_seed, args.base_seed + args.seeds)

    if args.backend_oracle:
        return _do_differential("backend", args, protocols, schedulers, seeds)
    if args.event_oracle:
        return _do_differential("engine", args, protocols, schedulers, seeds)
    if args.causal_oracle:
        return _do_causal_oracle(args, protocols, schedulers, seeds)

    def progress(result: CellResult) -> None:
        status = "ok" if result.ok else "FAIL"
        print(
            f"  {result.protocol} x {result.scheduler} seed={result.seed} "
            f"size={result.size} steps={result.steps} {status}",
            flush=True,
        )

    report = run_matrix(
        protocols,
        schedulers,
        seeds,
        quick=args.quick,
        transparency=not args.no_transparency,
        minimize=not args.no_minimize,
        obs_dump_dir=args.obs_dump,
        progress=progress if args.verbose else None,
    )
    print(report.format(verbose=args.verbose))
    _write_json(args, report)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
