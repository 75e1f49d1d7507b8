"""Command-line front door.

Subcommands: generate, chain, verify, exhaustive, stress, kings. Tournaments
travel in the text format (`-` means standard input); certificates are JSON.
Exit codes: 0 success, 1 domain error or failed verification, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

from . import analysis, chain as chain_mod, core, oracle
from .errors import TournamentError


def _king_flag(value: str) -> int | None:
    if value == "auto":
        return None
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--king takes an integer or 'auto', got {value!r}")


def _positive_int(value: str) -> int:
    try:
        number = int(value)
    except ValueError:
        number = 0
    if number < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value!r}")
    return number


def _read_tournament(path: str) -> core.Tournament:
    if path == "-":
        return core.parse_text(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as handle:
        return core.parse_text(handle.read())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kingchain",
        description="Build and verify chains of cycles around a king of a strong tournament.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a seeded random tournament in text format")
    p.add_argument("--n", type=int, required=True, help="number of vertices")
    p.add_argument("--seed", type=int, required=True, help="generator seed")
    p.add_argument("--strong", action="store_true", help="rejection-sample until strong")

    p = sub.add_parser("chain", help="build the cycle chain for a king")
    p.add_argument("--input", required=True, help="tournament text file, or - for stdin")
    p.add_argument(
        "--king", type=_king_flag, required=True,
        help="king vertex index, or 'auto' for the lowest-index king",
    )
    p.add_argument("--certificate", help="write the certificate JSON here")
    p.add_argument("--dot", help="write the tournament in DOT format here")

    p = sub.add_parser("verify", help="independently recheck a certificate")
    p.add_argument("--certificate", required=True, help="certificate JSON file")

    p = sub.add_parser("exhaustive", help="verify every king of every strong tournament of order n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="worker processes, capped at the CPU count (default 1)",
    )

    p = sub.add_parser("stress", help="verify seeded random strong tournaments")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("kings", help="list all kings of a tournament")
    p.add_argument("--input", required=True, help="tournament text file, or - for stdin")

    return parser


_PARSER = _build_parser()


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.strong:
        t = core.random_strong_tournament(args.n, args.seed)
    else:
        t = core.random_tournament(args.n, args.seed)
    sys.stdout.write(core.export(t, "text"))
    return 0


def _cmd_chain(args: argparse.Namespace) -> int:
    t = _read_tournament(args.input)
    king = args.king
    if king is None:  # the lowest king; the vertices above it go untested
        king = next(v for v in range(t.n) if analysis.is_king(t, v))
    built = chain_mod.build_chain(t, king)
    if args.certificate:
        with open(args.certificate, "w", encoding="utf-8") as handle:
            handle.write(chain_mod.dumps_certificate(t, built))
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(core.export(t, "dot"))
    print(f"n={t.n} king={king}")
    print(f"out_set={list(built.context.out_set)} in_set={list(built.context.in_set)}")
    print(f"blocks={[list(b) for b in built.blocks]}")
    print(f"exit_edge={built.exit_edge.tail}->{built.exit_edge.head}")
    print(f"spine={list(built.spine)}")
    # About n²/2 vertices, each read from one table; the lines stream, so the
    # listing is never held whole.
    name = chain_mod.VertexNames(t.n).__getitem__
    sys.stdout.writelines(
        f"C{len(cycle)}: {' '.join(map(name, cycle))}\n" for cycle in built.cycles
    )
    sys.stdout.writelines(
        f"C{j}->C{j + 1}: insert {name(z)} between {name(x)} and {name(y)}\n"
        for j, (x, y, z) in enumerate(built.insertions, 3)
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    with open(args.certificate, "r", encoding="utf-8") as handle:
        t, built = chain_mod.loads_certificate(handle.read())
    report = oracle.verify_chain(t, built)
    sys.stdout.writelines(
        f"C{check.length}: cycle={'ok' if check.is_cycle else 'FAIL'}"
        f" length={'ok' if check.correct_length else 'FAIL'}"
        f" king_member={'ok' if check.contains_king else 'FAIL'}"
        f" king_of_induced={'ok' if check.king_of_induced else 'FAIL'}\n"
        for check in report.cycle_checks
    )
    sys.stdout.writelines(
        f"C{j}->C{j + 1}: insertion={'ok' if ok else 'FAIL'}\n"
        for j, ok in enumerate(report.insertion_checks, 3)
    )
    print(f"result={'pass' if report.passed else 'fail'}")
    if not report.passed:
        print(f"first_failure={report.first_failure}", file=sys.stderr)
        return 1
    return 0


def _cmd_exhaustive(args: argparse.Namespace) -> int:
    summary = oracle.exhaustive_check(args.n, jobs=args.jobs)
    sys.stdout.write(summary.to_text())
    if summary.counterexample is not None:
        text_path, json_path = summary.counterexample.dump(".")
        print(f"counterexample written to {text_path} and {json_path}", file=sys.stderr)
    return 0 if summary.failures == 0 else 1


def _cmd_stress(args: argparse.Namespace) -> int:
    summary = oracle.random_stress(args.n, args.trials, args.seed)
    sys.stdout.write(summary.to_text())
    return 0 if summary.failures == 0 else 1


def _cmd_kings(args: argparse.Namespace) -> int:
    t = _read_tournament(args.input)
    for v in analysis.kings(t):
        print(v)
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "chain": _cmd_chain,
    "verify": _cmd_verify,
    "exhaustive": _cmd_exhaustive,
    "stress": _cmd_stress,
    "kings": _cmd_kings,
}


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except TournamentError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OverflowError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
