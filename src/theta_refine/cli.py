"""Command-line front end.

Subcommands: refine, verify, classify, decompose, min, kset, reduce, theta,
fixtures.  All output is deterministic (timing only appears behind -v);
JSON encodes matrix and ray entries as decimal strings.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import warnings
from fractions import Fraction

from .geometry import cone_to_json_dict, format_cone
from .ksets import kset
from .minima import min_complement, min_n
from .quadform import parse_int_form, reduce_gl2, sp_theta_coeffs, theta_coeffs
from .refinement import RunResult, run_algorithm, y_projection_holds
from .relations import classify, key_lemma_decompose, verify_relation
from . import fixtures

STOP_CHOICES = {"diagonal": "diagonal", "q1q3": "q1_eq_q3"}
FORM_HELP = (
    "a,b,c; a form with a negative first entry must be written --form=-1,0,-1,"
    " as argparse reads --form -1,0,-1 as an option"
)


_PAIR = re.compile(r"\s*(\()?\s*([-+]?\d+)\s*,\s*([-+]?\d+)\s*(\))?\s*")


def _parse_pair(text: str) -> tuple[int, int]:
    """``x,y`` or ``(x,y)``; anything else, unbalanced parentheses included, is an error."""
    m = _PAIR.fullmatch(text)
    if m is None or (m[1] is None) != (m[4] is None):
        raise ValueError(f"expected a pair x,y or (x,y), got {text.strip()!r}")
    return (int(m[2]), int(m[3]))


def _parse_pair_list(text: str) -> tuple[tuple[int, int], ...]:
    """Parse ``(1,0);(0,1)`` into a tuple of pairs."""
    return tuple(_parse_pair(part) for part in text.split(";") if part.strip())


def _parse_set_list(text: str) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Parse ``{(1,0),(0,1)};{};{(-1,1)}`` into a tuple of vector tuples."""
    sets = []
    for part in text.split(";"):
        body = part.strip()
        if body.startswith("{") and body.endswith("}"):
            body = body[1:-1].strip()
        pairs = re.split(r"(?<=\))\s*,", body) if body else ()
        sets.append(tuple(_parse_pair(p) for p in pairs))
    return tuple(sets)


def _format_pair(v: tuple[int, int]) -> str:
    return f"({v[0]}, {v[1]})"


def _format_set(s) -> str:
    return "{" + ", ".join(_format_pair(v) for v in s) + "}"


def _param_json(param) -> dict:
    return {
        "X": [[list(v) for v in s] for s in param.x_sets],
        "Y": [[list(v) for v in s] for s in param.y_sets],
        "Z": [[list(v) for v in s] for s in param.z_sets],
    }


def _dump_run(result: RunResult, out_dir: str) -> None:
    """One file per pair, replayed and written one generation at a time."""
    for i, gen in enumerate(result.replay()):
        gen_dir = os.path.join(out_dir, f"gen_{i}")
        os.mkdir(gen_dir)
        for j, pair in enumerate(gen):
            payload = {
                "cone": cone_to_json_dict(pair.cone),
                "param": _param_json(pair.param),
            }
            with open(os.path.join(gen_dir, f"pair_{j}.json"), "w") as f:
                f.write(json.dumps(payload, indent=1))


def format_table(result: RunResult, verbose: bool = False) -> str:
    """Aligned per-iteration table: totals and non-empty counts; ``verbose``
    adds the stop-absorbed pairs, live classes, counted children of empty
    chains and seconds."""
    indices = [str(rec.index) for rec in result.log]
    totals = [str(rec.total) for rec in result.log]
    nonempty = [str(rec.non_empty) for rec in result.log]
    rows = [("iteration", indices), ("pairs", totals), ("non-empty", nonempty)]
    if verbose:
        rows.append(("stop-absorbed", [str(rec.stop_absorbed) for rec in result.log]))
        rows.append(("live classes", [str(rec.live_classes) for rec in result.log]))
        rows.append(("counted", [str(rec.counted) for rec in result.log]))
        rows.append(("seconds", [f"{rec.seconds:.2f}" for rec in result.log]))
    label_w = max(len(r[0]) for r in rows)
    col_w = [
        max(len(row[1][i]) for row in rows) for i in range(len(result.log))
    ]
    lines = []
    for label, cells in rows:
        line = label.ljust(label_w) + "  " + "  ".join(
            c.rjust(col_w[i]) for i, c in enumerate(cells)
        )
        lines.append(line.rstrip())
    return "\n".join(lines)


def _check_out(path: str) -> None:
    """Refuse ``path`` unless it is an empty directory or does not exist
    and can be made: its nearest existing ancestor is a writable directory.
    A non-empty one would mix an earlier dump's files with this one's."""
    if not path:
        raise ValueError("--out needs a directory path, got ''")
    if os.path.lexists(path):
        if not os.path.isdir(path):
            raise ValueError(f"--out path {path} is not a directory")
        if os.listdir(path):
            raise ValueError(f"--out directory {path} is not empty")
        return
    parent = os.path.dirname(os.path.abspath(path))
    while not os.path.lexists(parent):
        parent = os.path.dirname(parent)
    if not os.path.isdir(parent) or not os.access(parent, os.W_OK):
        raise ValueError(f"--out directory {path} cannot be made in {parent}")


def _cmd_refine(args) -> int:
    # --out is checked before the run and made after it, so bad input
    # leaves no directory behind.
    if args.out is not None:
        _check_out(args.out)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_algorithm(args.a, args.b, STOP_CHOICES[args.stop_set], args.max_iter)
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    if args.emit == "json":
        print(
            json.dumps(
                {
                    "a": result.a,
                    "b": result.b,
                    "stop_set": result.stop_kind,
                    "totals": result.totals(),
                    "non_empty": result.non_empty_counts(),
                    "live_classes": [rec.live_classes for rec in result.log],
                    "counted": [rec.counted for rec in result.log],
                }
            )
        )
    else:
        print(format_table(result, verbose=args.verbose))
    if args.out is not None:
        _dump_run(result, args.out)
    return 0


def _cmd_verify(args) -> int:
    q1, q2, q3 = (parse_int_form(t) for t in (args.q1, args.q2, args.q3))
    ok, failing = verify_relation(q1, q2, q3, args.a, args.b, args.max_coeff)
    if ok:
        print(f"verified for all m <= {args.max_coeff}")
        return 0
    print(f"fails at m={failing}")
    return 1


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text.strip()!r}") from None


def _cmd_classify(args) -> int:
    alphas = tuple(_parse_fraction(t) for t in args.alphas.split(","))
    if len(alphas) != 3:
        raise ValueError("expected three comma-separated rationals")
    forms = tuple(parse_int_form(t) for t in (args.q1, args.q2, args.q3))
    result = classify(alphas, forms, args.max_coeff)
    print(f"{result.label} (bound {result.bound}): {result.detail}")
    return 0 if result.label != "no-relation-detected" else 1


def _cmd_decompose(args) -> int:
    triple = tuple(int(t.strip()) for t in args.triple.split(","))
    if len(triple) != 3:
        raise ValueError("expected x,y,z")
    result = key_lemma_decompose(args.a, args.b, triple)
    if result is None:
        print("none")
        return 1
    print(f"{result[0]},{result[1]},{result[2]}")
    return 0


def _cmd_min(args) -> int:
    excluded = _parse_pair_list(args.exclude)
    if args.n is None:
        for v in min_complement(excluded):
            print(_format_pair(v))
    else:
        for s in min_n(excluded, args.n):
            print(_format_set(tuple(sorted(s))))
    return 0


def _cmd_kset(args) -> int:
    sets = _parse_set_list(args.sets)
    cone = kset(sets)
    if args.emit == "json":
        print(json.dumps(cone_to_json_dict(cone)))
    else:
        print(format_cone(cone))
        print("rays =")
        for r in cone.edges():
            print(f"  {list(r)}")
    return 0


def _cmd_reduce(args) -> int:
    form = parse_int_form(args.form)
    reduced, transform = reduce_gl2(form)
    print(f"reduced: {reduced}")
    print(f"transform rows: {transform[0]} {transform[1]}")
    return 0


def _cmd_theta(args) -> int:
    form = parse_int_form(args.form)
    count = sp_theta_coeffs if args.variant == "sp" else theta_coeffs
    coeffs = count(form, args.max_coeff)
    if args.emit == "json":
        print(json.dumps([str(c) for c in coeffs]))
    else:
        for c in coeffs:
            print(c)
    return 0


def _cmd_fixtures(args) -> int:
    results = fixtures.run_fixtures()
    failed = [r for r in results if not r.ok]
    if args.emit == "json":
        print(json.dumps([{"name": r.name, "ok": r.ok, "detail": r.detail} for r in results]))
    else:
        for r in results:
            line = f"{'PASS' if r.ok else 'FAIL'} {r.name}"
            if not r.ok and r.detail:
                line += f": {r.detail}"
            print(line)
        print(f"{len(results) - len(failed)}/{len(results)} fixtures passed")
    return 1 if failed else 0


def _cmd_ycheck(args) -> int:
    ok = y_projection_holds(args.max_iter)
    print(f"y-projection check: {'holds' if ok else 'fails'}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="theta-refine",
        description="Exact cone refinement for 3-term theta series relations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("refine", help="run the refinement loop and print the table")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--stop-set", choices=sorted(STOP_CHOICES), default="diagonal")
    p.add_argument("--max-iter", type=int, default=13)
    p.add_argument("--out", help="new or empty directory for per-pair JSON dumps")
    p.add_argument("--emit", choices=("text", "json"), default="text")
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("verify", help="check a relation coefficient by coefficient")
    p.add_argument("--q1", required=True)
    p.add_argument("--q2", required=True)
    p.add_argument("--q3", required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--max-coeff", type=int, default=10000)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("classify", help="label a candidate relation")
    p.add_argument("--alphas", required=True, help="three rationals, e.g. 1/3,2/3,-1")
    p.add_argument("--q1", required=True)
    p.add_argument("--q2", required=True)
    p.add_argument("--q3", required=True)
    p.add_argument("--max-coeff", type=int, default=10000)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("decompose", help="decompose a triple over the linset")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--triple", required=True, help="x,y,z")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("min", help="minimal vectors outside an exclusion set")
    p.add_argument("--exclude", default="", help='e.g. "(1,0);(0,1)"')
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(func=_cmd_min)

    p = sub.add_parser("kset", help="cone of forms with prescribed minima sets")
    p.add_argument("--sets", required=True, help='e.g. "{(1,0),(0,1)};{};{(-1,1)}"')
    p.add_argument("--emit", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_kset)

    p = sub.add_parser("reduce", help="GL2(Z)-reduce an integer form")
    p.add_argument("--form", required=True, help=FORM_HELP)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("theta", help="theta series coefficients")
    p.add_argument("--form", required=True, help=FORM_HELP)
    p.add_argument("--max-coeff", type=int, default=100)
    p.add_argument("--variant", choices=("ordinary", "sp"), default="ordinary")
    p.add_argument("--emit", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_theta)

    p = sub.add_parser("fixtures", help="replay the embedded golden examples")
    p.add_argument("--emit", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_fixtures)

    p = sub.add_parser("ycheck", help="projection argument for the 2-term case")
    p.add_argument("--max-iter", type=int, default=13)
    p.set_defaults(func=_cmd_ycheck)

    return parser


def main(argv=None) -> int:
    """Run one subcommand and return its exit code.

    0 is success; 1 is a negative answer from ``verify``, ``classify``,
    ``decompose``, ``fixtures`` or ``ycheck``; 2 is bad input, an output
    path that cannot be written or is not empty, or a ``--max-coeff`` whose
    coefficient list cannot be allocated, reported as a one-line ``error:``
    message on standard error.
    """
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "max_coeff", 0) < 0:
            raise ValueError(f"--max-coeff must be non-negative, got {args.max_coeff}")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, OverflowError):
        # A list of --max-coeff + 1 entries: past the address space it
        # raises MemoryError, past the index size OverflowError.
        if not hasattr(args, "max_coeff"):
            raise
        print(f"error: --max-coeff {args.max_coeff} is too large to allocate", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
