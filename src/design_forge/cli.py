"""Command-line interface.

Examples:

    design-forge construct --family ms1 --alphabet 2,2,2,2,3 --k 3
    design-forge construct --family oa-gdd --k 4 --r 2 -o gdd.json
    design-forge construct --family hybrid --k 3 --n 9 --i 4 -o s19.json
    design-forge verify --claim ms --t 2 s19.json
    design-forge transform gdd-to-ls gdd.json
    design-forge oa --kind extended --q 3
    design-forge catalog --g-max 13

`construct` writes canonical design JSON (to --output, else stdout) and
prints a one-line summary with the parameters, block count, and minimum
distance.  `verify` prints a report as JSON and its exit code is the
verdict; `--t` (also spelled `--strength`) checks at that strength instead
of the file's, and when both spellings are given the last one wins.  Exit codes: 0 = constructed/verified OK, 1 = a verification ran
and failed, 2 = bad input or infeasible parameters, 3 = unexpected error.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

from .constructions import (
    CatalogRecord,
    PartitionedCover,
    _catalog_count,
    _catalog_records,
    base_system,
    combine_partition,
    construct_from_oa,
    construct_hybrid_ms,
    gdd_to_largeset,
    largeset_to_gdd,
    ms1_construct,
    resolvable_affine,
    validate_cover,
)
from .core import MixedDesign
from .errors import DesignForgeError, FormatError, LargeSetInvalid
from .formats import (
    cover_to_json,
    design_from_json,
    design_to_json,
    largeset_from_json,
    largeset_to_json,
    oa_from_text,
    oa_to_text,
    report_to_json,
)
from .oa import oa_extended, oa_square, oa_sum, verify_oa
from .verify import (
    ms_bound_check,
    verify_gdd,
    verify_large_set,
    verify_mixed_steiner,
    verify_resolution,
    verify_steiner,
)


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(
            f"--alphabet must be comma-separated ints, got {text!r}"
        ) from None


def _nonnegative_int(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"must be a nonnegative int, got {text!r}")
    return int(text)


def _alphabet_str(design: MixedDesign) -> str:
    counts = Counter(design.alphabet.sizes)
    return " x ".join(
        f"Z{size}^{count}" if count > 1 else f"Z{size}"
        for size, count in sorted(counts.items())
    )


def _summary(design: MixedDesign) -> str:
    """Parameters, block count and the minimum distance that the builder's
    own output check measured."""
    dist = design.report.stats["min_distance"]
    dist_str = "infinite" if dist == float("inf") else str(dist)
    return (
        f"t={design.t} k={design.k} alphabet {_alphabet_str(design)}: "
        f"{len(design.blocks)} blocks, min distance {dist_str}"
    )


def _cover_summary(cover: PartitionedCover) -> str:
    return (
        f"cover on {cover.n} points, t={cover.t} k={cover.k}: "
        f"{len(cover.r_blocks)} root blocks, {len(cover.classes)} classes"
    )


def _write_report(output: str | None, parts) -> None:
    """Write the strings `parts` to the file `output`, else to stdout, each
    as it comes."""
    if output:
        with open(output, "w") as out:
            out.writelines(parts)
    else:
        sys.stdout.writelines(parts)


def _emit(output: str | None, text: str, summary: str) -> None:
    """Write the artifact; keep stdout machine-readable when it carries it."""
    _write_report(output, [text])
    print(summary, file=sys.stdout if output else sys.stderr)


def _read(path: str) -> str:
    return Path(path).read_text()


# the arguments each construct family and each oa kind needs
_NEEDS = {
    "ms1": ("alphabet", "k"),
    "oa-gdd": ("k", "r"),
    "base": ("k",),
    "affine": ("q",),
    "hybrid": ("k",),
    "square": ("q",),
    "extended": ("q",),
    "sum": ("t", "k"),
}


def _require(what: str, args: argparse.Namespace) -> None:
    needs = _NEEDS[what]
    if any(getattr(args, name) is None for name in needs):
        raise ValueError(f"{what} needs " + " and ".join(f"--{name}" for name in needs))


def cmd_construct(args: argparse.Namespace) -> int:
    family = args.family
    _require(family, args)
    if family == "ms1":
        design = ms1_construct(_parse_sizes(args.alphabet), args.k)
    elif family == "oa-gdd":
        design = construct_from_oa(args.k, args.r)
    elif family == "base":
        cover = base_system(args.k)
        if args.as_cover:
            validate_cover(cover)
            _emit(args.output, cover_to_json(cover), _cover_summary(cover))
            return 0
        design = combine_partition(cover)
    elif family == "affine":
        design, resolution = resolvable_affine(args.q)
        _emit(args.output, design_to_json(design, resolution), _summary(design))
        return 0
    else:  # hybrid
        if args.input:
            base, resolution = design_from_json(_read(args.input))
            if resolution is None:
                raise FormatError("hybrid --input must carry classes")
            if args.k != base.k:
                raise ValueError(f"--k {args.k} disagrees with the input's k={base.k}")
            if args.n is not None and args.n != base.alphabet.n:
                raise ValueError(
                    f"--n {args.n} disagrees with the input's {base.alphabet.n} points"
                )
        else:
            n = args.n if args.n is not None else args.k * args.k
            if n != args.k * args.k:
                raise ValueError(
                    "without --input the resolvable design is the affine plane: "
                    "n must be k^2"
                )
            base, resolution = resolvable_affine(args.k)
        design = construct_hybrid_ms(base, resolution, args.i)
    _emit(args.output, design_to_json(design), _summary(design))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    # the file's text is passed straight to its reader, so it is freed once
    # parsed and not held while the check runs
    if args.claim == "oa":
        array = oa_from_text(_read(args.file))
        strength = array.strength if args.t is None else args.t
        report = verify_oa(array, strength, max_words=args.max_words)
    elif args.claim == "largeset":
        ls = _at_strength(largeset_from_json(_read(args.file)), args.t)
        report = verify_large_set(ls, max_words=args.max_words)
    else:
        design, resolution = design_from_json(_read(args.file))
        design = _at_strength(design, args.t)
        if args.claim == "ms":
            report = verify_mixed_steiner(design, max_words=args.max_words)
        elif args.claim == "gdd":
            report = verify_gdd(design, max_words=args.max_words)
        elif args.claim == "steiner":
            report = verify_steiner(
                design, design.t, design.k, design.alphabet.n, max_words=args.max_words
            )
        else:  # resolution
            if resolution is None:
                raise FormatError("design JSON lacks classes")
            report = verify_resolution(design, resolution)
    _write_report(args.output, [report_to_json(report)])
    return 0 if report.ok else 1


def _at_strength(claimed, t: int | None):
    """The design or large set as read, or at strength t when t is given;
    the copy runs the same __post_init__ checks as a read."""
    return claimed if t is None or t == claimed.t else replace(claimed, t=t)


def cmd_transform(args: argparse.Namespace) -> int:
    # as in cmd_verify, the text is freed once parsed
    if args.direction == "ls-to-gdd":
        out = design_to_json(largeset_to_gdd(largeset_from_json(_read(args.file))))
    else:
        design, _ = design_from_json(_read(args.file))
        out = largeset_to_json(gdd_to_largeset(design, args.hole))
    _write_report(args.output, [out])
    return 0


def cmd_oa(args: argparse.Namespace) -> int:
    _require(args.kind, args)
    if args.kind == "sum":
        array = oa_sum(args.t, args.k)
    else:
        array = (oa_square if args.kind == "square" else oa_extended)(args.q)
    _write_report(args.output, [oa_to_text(array)])
    return 0


def cmd_catalog(args: argparse.Namespace) -> int:
    ranges = range(2, args.g_max + 1), range(1, args.h_max + 1), range(1, args.ell_max + 1)
    # counted before any record is made; below the ceiling each line is
    # written as its record is made
    _catalog_count(*ranges)
    _write_report(args.output, map(_catalog_line, _catalog_records(*ranges)))
    return 0


def _catalog_line(rec: CatalogRecord) -> str:
    check = ms_bound_check(rec.t, rec.group_size, rec.hole_size, rec.group_count)
    tail = (
        "ms-counterpart: open"
        if check.feasible
        else f"ms-counterpart: blocked (needs >= {check.required} groups, "
        f"have {rec.group_count})"
    )
    return f"{rec.describe()} | {tail}\n"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="design-forge",
        description="construct and verify mixed Steiner systems and group divisible designs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a design, write JSON, print a summary")
    c.add_argument(
        "--family",
        required=True,
        choices=["ms1", "oa-gdd", "base", "hybrid", "affine"],
        help="which construction to run",
    )
    c.add_argument("--alphabet", help="comma-separated alphabet sizes (ms1)")
    c.add_argument("--k", type=int, help="block size")
    c.add_argument("--r", type=int, help="binary coordinate groups, 1..k-1 (oa-gdd)")
    c.add_argument("--q", type=int, help="plane order (affine)")
    c.add_argument("--n", type=int, help="points of the resolvable design (hybrid)")
    c.add_argument(
        "--i", type=int, default=0, help="parallel classes to replace (hybrid)"
    )
    c.add_argument("--input", help="resolvable design JSON with classes (hybrid)")
    c.add_argument(
        "--as-cover", action="store_true", help="emit the uncombined cover (base)"
    )
    c.add_argument("-o", "--output", help="write the design here instead of stdout")

    v = sub.add_parser("verify", help="check a claimed design, report JSON, exit 0/1")
    v.add_argument(
        "--claim",
        required=True,
        choices=["ms", "gdd", "steiner", "oa", "resolution", "largeset"],
        help="what property the input claims",
    )
    v.add_argument(
        "--t", "--strength", dest="t", type=int, help="verify at this strength instead of the file's"
    )
    v.add_argument(
        "--max-words",
        type=_nonnegative_int,
        help="abort if more words, block pairs compared for --claim ms, or "
        "column-set tuples for --claim oa than this must be counted",
    )
    v.add_argument("-o", "--output", help="write the report here instead of stdout")
    v.add_argument("file", help="design/large-set JSON or OA text")

    t = sub.add_parser("transform", help="move between large sets and hole GDDs")
    t.add_argument("direction", choices=["ls-to-gdd", "gdd-to-ls"])
    t.add_argument("file", help="input JSON")
    t.add_argument(
        "--hole", type=int, help="hole coordinate (gdd-to-ls; default: last)"
    )
    t.add_argument("-o", "--output", help="write here instead of stdout")

    o = sub.add_parser("oa", help="emit an orthogonal array as text")
    o.add_argument("--kind", required=True, choices=["square", "extended", "sum"])
    o.add_argument("--q", type=int, help="prime-power order (square, extended)")
    o.add_argument("--t", type=int, help="strength (sum)")
    o.add_argument("--k", type=int, help="alphabet size (sum)")
    o.add_argument("-o", "--output", help="write here instead of stdout")

    g = sub.add_parser("catalog", help="list GDDs derivable from known large sets")
    g.add_argument("--g-max", type=int, default=13, help="largest group size (from 2)")
    g.add_argument("--h-max", type=int, default=4, help="largest scale factor (from 1)")
    g.add_argument("--ell-max", type=int, default=3, help="largest exponent (from 1)")
    g.add_argument("-o", "--output", help="write here instead of stdout")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # Looked up at each call: the parser is cached, and must not pin the
    # cmd_* functions that existed when it was built.
    command = globals()[f"cmd_{args.command}"]
    # Blocks, designs and reports hold no reference cycles, so while a
    # command runs the cyclic collector would only rescan them.  It is
    # paused here, not in the library, whose callers own that global setting.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return command(args)
    except LargeSetInvalid as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except (DesignForgeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"unexpected error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
