"""Command-line front end.

Subcommands: search, max, min, sort (run a scheme and verify against the
oracle), info (topology arithmetic), trace (verify a previously written
trace file by replaying it, with ``tracefile.verify``, and print the
result), bench (compare sort cycle counts with the classic comparison
sorts).

Exit status: 0 on success, 2 when the simulator and the oracle disagree,
1 on any other error.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import re
import sys
from typing import Sequence

from . import algorithms, oracle
from .planes import Mode, ProtocolError
from .topology import (MAX_NODES, MAX_WORD_SIZE, TreeParams, build_topology, check_nodes,
                       level_sizes, node_count, required_height)
from .tracefile import Divergence, Recorder, verify

__all__ = ["main", "parse_input"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DIVERGENCE = 2


class InputError(ValueError):
    """Bad input text or inconsistent run parameters."""


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ``InputError``, so they end in exit status 1 with
    one line, not argparse's usage block and exit status 2.  Subparsers
    inherit the class."""

    def error(self, message: str):
        # Unrecognized arguments are quoted raw; keep the message one short line.
        raise InputError(_cut_echoes(message.replace("\n", "\\n")))


# Every number the platform can use fits in 64 bits, whose limit has 20 digits.
_MAX_DIGITS = len(str(1 << MAX_WORD_SIZE))
# The words of a message: a token's repr (blanks and escaped quotes in it) or
# a bare run; and a number that _shown has cut.
_WORD = re.compile(r"""'(?:[^'\\\n]|\\.)*'|"(?:[^"\\\n]|\\.)*"|[^\s'"]+""")
_CUT_NUMBER = re.compile(r"[+-]?[0-9]{%d}\.\.\." % _MAX_DIGITS)


def _shown(digits: str) -> str:
    """A number's digits for a message: past _MAX_DIGITS, the first ones and their count."""
    return (digits if len(digits) <= _MAX_DIGITS
            else f"{digits[:_MAX_DIGITS]}... ({len(digits)} digits)")


def _cut_echoes(text: str) -> str:
    """``text`` with each word past _MAX_DIGITS characters, inside its quotes,
    cut to its first ones and its length, as _shown cuts a number."""
    def cut(word: re.Match) -> str:
        run = word.group()
        quote = run[0] if run[0] in "'\"" else ""
        inner = run[len(quote):len(run) - len(quote)]
        if len(inner) <= _MAX_DIGITS or _CUT_NUMBER.fullmatch(run):
            return run
        return f"{quote}{inner[:_MAX_DIGITS]}{quote}... ({len(inner)} characters)"
    return _WORD.sub(cut, text)


def _integer(text: str) -> int:
    """The integer options' reader: an optional sign and ASCII digits, read as
    a list's values are: leading zeros dropped, the digits counted before int()."""
    sign = text[:1] if text.startswith(("+", "-")) else ""
    digits = text[len(sign):]
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    digits = digits.lstrip("0") or "0"
    if len(digits) > _MAX_DIGITS:
        raise argparse.ArgumentTypeError(
            f"value {sign}{_shown(digits)} is over the limit of {_MAX_DIGITS} digits")
    return int(sign + digits)


def parse_input(text: str, word_size: int) -> list[int]:
    """Parse a list of non-negative decimal integers.

    Values are separated by whitespace, commas or newlines; lines starting
    with '#' are ignored.  Every value is range-checked against the word
    size.  Errors report the line and column of the offending token.
    """
    limit = 1 << word_size
    # One pass over the text, its comment lines blanked and its line breaks kept.
    # The scan below runs only for a bad token or one longer than the limit's digits.
    text = re.sub(r"(?m)^[^\S\n]*#.*", "", "\n".join(text.splitlines()))
    tokens = text.replace(",", " ").split()
    digits = "".join(tokens)
    if digits.isascii() and digits.isdigit() and max(map(len, tokens)) <= len(str(limit)):
        if max(values := list(map(int, tokens))) < limit:
            return values
    values, places = [], len(str(limit))
    for token_match in re.finditer(r"[^\s,]+", text):
        token = token_match.group()
        digits = token.lstrip("0") or "0"  # sized before int(), which caps its digits
        if not (token.isascii() and token.isdigit()):
            problem = f"{_cut_echoes(repr(token))} is not a non-negative decimal integer"
        elif len(digits) > places or (value := int(digits)) >= limit:
            problem = (f"value {_shown(digits)} does not fit in a {word_size}-bit word "
                       f"(max {limit - 1})")
        else:
            values.append(value)
            continue
        start = token_match.start()
        line, column = text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)
        raise InputError(f"line {line}, column {column}: {problem}")
    return values


def _load_elements(args: argparse.Namespace) -> list[int]:
    if args.input and args.list:
        raise InputError("give either --input or --list, not both")
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            return parse_input(fh.read(), args.word_size)
    if args.list is not None:
        return parse_input(args.list, args.word_size)
    if args.seed is not None:
        if args.count < 0:
            raise InputError(f"--count must be >= 0, got {args.count}")
        check_nodes(args.count + 1, f"--count {args.count}")
        rng = random.Random(args.seed)
        limit = 1 << args.word_size
        return [rng.randrange(limit) for _ in range(args.count)]
    raise InputError("no input list: give --input, --list, or --seed")


def _resolve_height(args: argparse.Namespace, n_elements: int) -> int:
    needed = required_height(args.eta, n_elements)
    if args.height is None:
        return needed
    if args.height < needed:
        raise InputError(
            f"--height {args.height} offers "
            f"{node_count(args.eta, args.height) - 1} slots; "
            f"{n_elements} elements need height >= {needed}"
        )
    return args.height


def _print_block(pairs: list[tuple[str, object]], as_json: bool) -> None:
    if as_json:
        print(json.dumps({k: v for k, v in pairs}, separators=(",", ":")))
    else:
        for k, v in pairs:
            print(f"{k}: {v}")


def _call_traced(run, path: str | None):
    """Call ``run``, recording its trace to ``path`` when one is given.

    Every run segment writes its header and cycle-0 lines, then one line
    per node and cycle.  Search, max and min write one segment; sort writes
    two per round, the tournament and the comparison phase.
    """
    if path is None:
        return run()
    with open(path, "w", encoding="utf-8") as fh:
        return run(on_step=Recorder(fh.write))


def _run_scheme(args: argparse.Namespace) -> int:
    elements = _load_elements(args)
    command = args.command
    if command == "search" and args.key is None:
        raise InputError("search requires --key")

    height = _resolve_height(args, len(elements))
    params = TreeParams(args.eta, height, args.word_size)
    topo = build_topology(params)
    limit = 1 << args.word_size

    pairs: list[tuple[str, object]] = [
        ("command", command),
        ("eta", params.eta),
        ("height", params.height),
        ("word_size", params.word_size),
        ("n", topo.n),
        ("elements", len(elements)),
    ]

    expected: object
    if command == "search":
        key = args.key
        if not 0 <= key < limit:
            raise InputError(f"--key {key} does not fit in a {args.word_size}-bit word")
        tree = algorithms.load_list(topo, elements, Mode.SEARCH, key=key)
        res = _call_traced(functools.partial(algorithms.search, tree, key),
                           args.trace_out)
        pairs += [
            ("key", key),
            ("found", "yes" if res.found else "no"),
            ("cycles", res.cycles),
            ("overhead_bits", algorithms.resource_report(params, "search")),
        ]
        expected = oracle.oracle_search(elements, key)
        actual: object = res.found
    elif command in ("max", "min"):
        mode = Mode.MAX if command == "max" else Mode.MIN
        tree = algorithms.load_list(topo, elements, mode)
        run = algorithms.compute_max if mode is Mode.MAX else algorithms.compute_min
        res = _call_traced(functools.partial(run, tree), args.trace_out)
        pairs += [("value", res.value), ("cycles", res.cycles)]
        identity = 0 if mode is Mode.MAX else limit - 1
        expected = oracle.oracle_extremum(elements, command, identity)
        actual = res.value
    else:  # sort
        res = _call_traced(
            functools.partial(algorithms.sort, topo, elements, order=args.order),
            args.trace_out)
        pairs += [
            ("order", args.order),
            ("output", ",".join(str(x) for x in res.output)),
            ("rounds", res.rounds),
            ("cycles", res.cycles_total),
            ("per_round_cycles", ",".join(str(c) for c in res.per_round_cycles)),
            ("overhead_bits", algorithms.resource_report(params, "sort")),
        ]
        expected = oracle.oracle_sort_desc(elements)
        if args.order == "asc":
            expected = list(reversed(expected))
        actual = res.output

    status = EXIT_OK
    if args.verify:
        report = oracle.compare(expected, actual)
        pairs.append(("oracle", "agree" if report.agreed else "DIVERGENCE"))
        if not report.agreed:
            pairs.append(("oracle_detail", report.detail))
            status = EXIT_DIVERGENCE
    if args.trace_out:
        pairs.append(("trace", args.trace_out))
    _print_block(pairs, args.json)
    return status


def _run_info(args: argparse.Namespace) -> int:
    height = args.height
    n_elements = None
    if args.input or args.list is not None or args.seed is not None:
        n_elements = len(_load_elements(args))
        height = _resolve_height(args, n_elements)
    elif height is None:
        raise InputError("info needs --height or an input list")
    params = TreeParams(args.eta, height, args.word_size)
    n = node_count(params.eta, params.height)
    check_nodes(n, f"--eta {params.eta} --height {params.height}")
    # The leaves are the last level of any tree with more than the root.
    per_level = level_sizes(params.eta, params.height)
    pairs: list[tuple[str, object]] = [
        ("command", "info"),
        ("eta", params.eta),
        ("height", params.height),
        ("word_size", params.word_size),
        ("n", n),
        ("slots", n - 1),
        ("leaves", per_level[-1] if params.height > 1 else 0),
        ("nodes_per_level", ",".join(map(str, per_level))),
        ("search_overhead_bits", algorithms.resource_report(params, "search")),
        ("sort_overhead_bits", algorithms.resource_report(params, "sort")),
    ]
    if n_elements is not None:
        pairs.insert(6, ("elements", n_elements))
    _print_block(pairs, args.json)
    return EXIT_OK


def _run_trace_verify(args: argparse.Namespace) -> int:
    """Verify a trace file with ``tracefile.verify``; print the summary, or
    the divergence report with exit status 2."""
    with open(args.trace_file, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        n_segments, total = verify(text)
    except Divergence as exc:
        print(exc)
        return EXIT_DIVERGENCE
    if not n_segments:
        raise InputError(f"{args.trace_file}: no trace segments found")
    print(f"trace: {n_segments} segment(s), {total} events, replay matches")
    return EXIT_OK


def _run_bench(args: argparse.Namespace) -> int:
    """Cycle counts for the tree sort next to the classic sorters."""
    rng = random.Random(args.seed if args.seed is not None else 0)
    sizes: list[int] = []
    for entry in filter(None, map(str.strip, args.sizes.split(","))):
        if not (entry.isascii() and entry.isdigit()):
            raise InputError(
                f"--sizes entry {_cut_echoes(repr(entry))} is not a non-negative integer")
        digits = entry.lstrip("0") or "0"  # sized before int(), which caps its digits
        if len(digits) > len(str(MAX_NODES)):
            raise InputError(
                f"--sizes entry {_shown(digits)} needs over the limit of {MAX_NODES} nodes")
        sizes.append(int(digits))
        check_nodes(sizes[-1] + 1, f"--sizes entry {digits}")
    limit = 1 << args.word_size
    rows = []
    for size in sizes:
        elements = [rng.randrange(limit) for _ in range(size)]
        height = required_height(args.eta, size)
        topo = build_topology(TreeParams(args.eta, height, args.word_size))
        res = algorithms.sort(topo, elements)
        for name in oracle.BASELINE_SORTS:
            out, comps = oracle.run_baseline(name, elements)
            if out != res.output:
                print(f"bench: {name} disagrees with in-memory sort on size {size}")
                return EXIT_DIVERGENCE
            rows.append((size, name, "-", comps))
        rows.append((size, "in-memory", res.cycles_total, "-"))
    header = ("size", "algorithm", "cycles", "comparisons")
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(4)]
    for row in [header] + rows:
        print("  ".join(str(v).ljust(widths[i]) for i, v in enumerate(row)))
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eta", type=_integer, default=2, help="branching order (default 2)")
    p.add_argument("--word-size", type=_integer, default=8, dest="word_size",
                   help="bits per memory word (default 8)")
    p.add_argument("--height", type=_integer, default=None,
                   help="tree height; default is the smallest that fits the list")
    p.add_argument("--json", action="store_true", help="emit one JSON object")
    p.add_argument("--input", help="path to a list file")
    p.add_argument("--list", help="inline comma/space separated list")
    p.add_argument("--seed", type=_integer, default=None,
                   help="generate a random list from this seed")
    p.add_argument("--count", type=_integer, default=10,
                   help="length of a generated list (default 10)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it is."""
    parser = _Parser(
        prog="cayley-imc",
        description="Cycle-accurate simulator of a Cayley-tree in-memory "
                    "computing platform",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, desc in (("search", "look a key up in the tree"),
                       ("max", "compute the maximum in-memory"),
                       ("min", "compute the minimum in-memory"),
                       ("sort", "sort the list in-memory")):
        p = sub.add_parser(name, help=desc)
        _add_common(p)
        if name == "search":
            p.add_argument("--key", type=_integer, default=None, help="key to search for")
        elif name == "sort":
            p.add_argument("--order", choices=("desc", "asc"), default="desc",
                           help="output order (default desc)")
        p.add_argument("--trace-out", dest="trace_out", default=None,
                       help="write the per-cycle trace stream to this path")
        p.add_argument("--no-verify", dest="verify", action="store_false",
                       help="skip the oracle cross-check")

    p = sub.add_parser("info", help="topology and space arithmetic")
    _add_common(p)

    p = sub.add_parser("trace", help="verify a trace file by replaying it")
    p.add_argument("trace_file", help="trace file written by --trace-out")

    p = sub.add_parser("bench", help="compare with the classic sorters")
    p.add_argument("--eta", type=_integer, default=2)
    p.add_argument("--word-size", type=_integer, default=8, dest="word_size")
    p.add_argument("--sizes", default="8,32,128",
                   help="comma-separated list sizes (default 8,32,128)")
    p.add_argument("--seed", type=_integer, default=None)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # Checked before anything computes 1 << word_size.
        word_size = getattr(args, "word_size", 1)
        if not 1 <= word_size <= MAX_WORD_SIZE:
            raise InputError(f"--word-size must be in 1..{MAX_WORD_SIZE}, got {word_size}")
        if args.command in ("search", "max", "min", "sort"):
            return _run_scheme(args)
        if args.command == "info":
            return _run_info(args)
        if args.command == "trace":
            return _run_trace_verify(args)
        return _run_bench(args)
    except (InputError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ProtocolError as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
