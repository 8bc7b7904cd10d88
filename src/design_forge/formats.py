"""Interchange formats: JSON for designs, large sets, covers, and reports;
a small text format for orthogonal arrays.

Writers emit a canonical form (sorted blocks, compact separators, trailing
newline) so that equal objects serialize to identical bytes.  Readers are
lenient about key order and whitespace and raise FormatError on anything
structurally wrong.
"""

from __future__ import annotations

import json
import math
import re
import sys
from itertools import accumulate, chain
from operator import itemgetter, lt, methodcaller

from .constructions import PartitionedCover
from .core import (
    Codeword,
    LargeSet,
    MixedAlphabet,
    MixedDesign,
    Resolution,
    _valid_codewords,
)
from .errors import AlphabetMismatch, FormatError
from .oa import OrthogonalArray
from .verify import VerificationReport


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise FormatError(message)


def _is_int(value) -> bool:
    """A JSON integer.  JSON true/false load as bool, an int subclass, and
    are not numbers in an interchange file."""
    return type(value) is int


def _load(text: str) -> dict:
    try:
        data = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int past int's digit limit
        raise FormatError(f"not valid JSON: {exc}") from exc
    except RecursionError:
        # the decoder's text names the interpreter's limit and varies by version
        raise FormatError("JSON nested too deeply to read") from None
    _require(isinstance(data, dict), "top level must be a JSON object")
    return data


def _dump(data) -> str:
    return json.dumps(data, separators=(",", ":"), sort_keys=True) + "\n"


def _block_from_list(item) -> Codeword:
    """A block read from JSON: Codeword checks its entries."""
    if not isinstance(item, list):
        raise FormatError(f"block must be a list, got {type(item).__name__}")
    try:
        return Codeword(item)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def _load_blocks(text: str, key: str, depth: int) -> tuple[dict, list | None]:
    """The file's JSON object and the copies of blocks in its list under
    `key` (a design's block list is one copy at depth 3; a large set's
    copies sit at depth 4), or None in their place.  A list in compact form,
    as the writers write it, is read in whole-text passes (_compact_cut,
    _compact_copies).  Any other file is parsed whole by _load, and its
    blocks are left to the caller to read one at a time through
    _block_from_list, so their errors and their order are the per-block
    loop's."""
    cut = _compact_cut(text, key, depth)
    if cut is not None:
        data, bodies = cut
        copies = _compact_copies(bodies, data["k"])
        if copies is not None:
            return data, copies
    return _load(text), None


def _compact_cut(text: str, key: str, depth: int) -> tuple[dict, list[str]] | None:
    """The header of a file with null in place of its list under `key`, and
    the texts of the list's copies inside their brackets, or None.  The list
    is cut out of the text only when the text holds no backslash (so no key
    is escaped and no string holds a quote), '"key"' occurs once and is
    followed at once by ':' and `depth` brackets, the list ends at the first
    `depth` closing brackets, and the header parses to an object that holds
    that null under `key` and an int (not a bool) under "k".  Then the cut
    is the value of the top-level key, so the header parses exactly when the
    whole text does, once _compact_copies finds the cut a JSON list."""
    name = f'"{key}"'
    if "\\" in text or text.count(name) != 1:
        return None
    start = text.find(name + ":" + "[" * depth)
    if start < 0:
        return None
    start += len(name) + 1
    end = text.find("]" * depth, start)
    if end < 0:
        return None
    end += depth
    try:
        data = json.loads(text[:start] + "null" + text[end:])
    except (ValueError, RecursionError):
        return None
    if not (isinstance(data, dict) and key in data and data[key] is None
            and type(data.get("k")) is int):
        return None
    return data, text[start + depth:end - depth].split("]]],[[[")


def _compact_copies(bodies: list[str], k: int) -> list[tuple[Codeword, ...]] | None:
    """The blocks of each copy's text, or None unless every copy is a list of
    blocks of exactly k entries "c,s", with c = 0 or a decimal of up to 18
    digits without a leading zero and s such a decimal >= 1, and with
    coordinates strictly increasing within each block.  Those are the
    blocks that Codeword would return unchanged, and the texts that make the
    cut a JSON list.  The texts are split once on the block and once on the
    entry separator; each distinct entry text is checked and parsed once
    into one (c, s) tuple, which every block holding it shares.  A block's
    entry count is compared with k before anything of size k is made."""
    copies = [body.split("]],[[") for body in bodies]
    if set(map(methodcaller("count", "],["), chain.from_iterable(copies))) != {k - 1}:
        return None
    sizes = list(map(len, copies))
    joined = "],[".join(chain.from_iterable(copies))
    del copies  # the block strings go before the entry strings are made
    texts = joined.split("],[")
    del joined
    entry = re.compile(r"(0|[1-9][0-9]{0,17}),([1-9][0-9]{0,17})").fullmatch
    pairs = {}
    for item in set(texts):
        match = entry(item)
        if match is None:
            return None
        pairs[item] = (int(match[1]), int(match[2]))
    entries = list(map(pairs.__getitem__, texts))
    del texts
    coords = list(map(itemgetter(0), entries))
    if not all(all(map(lt, coords[j::k], coords[j + 1::k])) for j in range(k - 1)):
        return None
    del coords
    supports = list(zip(*[iter(entries)] * k))
    del entries
    ends = accumulate(sizes)
    return [_valid_codewords(supports[end - size:end]) for size, end in zip(sizes, ends)]


def _alphabet_from(data) -> MixedAlphabet:
    _require(
        isinstance(data, list) and data and all(_is_int(s) for s in data),
        "alphabet must be a nonempty list of ints",
    )
    try:
        return MixedAlphabet(tuple(data))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def _blocks_json(supports: list) -> tuple[str, list]:
    """The canonical JSON text of a list of equal-weight supports and the
    order that sorts them (order[new] = old, ties kept in list order).

    The distinct (coordinate, symbol) entries that occur are numbered in
    (c, s) order and each support is written as a string of one code point
    per entry, so string order is support order and one string sort gives
    the order.  The sorted strings are joined by a separator code point and
    one str.translate writes every entry as "[c,s]," and the separator as
    "],["; one replace drops the comma before each "]".  A list with more
    distinct entries than code points is sorted as tuples and written entry
    by entry."""
    if not supports:
        return "[]", []
    entries = set(chain.from_iterable(supports))
    if len(entries) > sys.maxunicode:
        order = sorted(range(len(supports)), key=supports.__getitem__)
        body = "],[".join("".join(map("[%d,%d],".__mod__, supports[i])) for i in order)
    else:
        entries = sorted(entries)
        code = dict(zip(entries, map(chr, range(len(entries)))))
        flat = "".join(map(code.__getitem__, chain.from_iterable(supports)))
        k = len(supports[0])
        ends = range(k, len(flat) + k, k)
        keys = list(map(flat.__getitem__, map(slice, range(0, len(flat), k), ends)))
        order = sorted(range(len(keys)), key=keys.__getitem__)
        texts = list(map("[%d,%d],".__mod__, entries))
        texts.append("],[")
        body = chr(len(entries)).join(map(keys.__getitem__, order)).translate(texts)
    return ("[[" + body + "]]").replace(",]", "]"), order


def _spliced(data: dict, key: str, text: str) -> str:
    """_dump of data with `text` written as the value of `key`, which holds
    None: the header's other values hold no strings before it in key order,
    so its first '"key":null' is that value."""
    return _dump(data).replace(f'"{key}":null', f'"{key}":{text}', 1)


def design_to_json(design: MixedDesign, resolution: Resolution | None = None) -> str:
    """Canonical JSON for a design: blocks sorted by support, resolution
    class indices remapped to the sorted order."""
    blocks, order = _blocks_json([b.support for b in design.blocks])
    data = {
        "alphabet": list(design.alphabet.sizes),
        "t": design.t,
        "k": design.k,
        "blocks": None,
    }
    if design.meta:
        data["meta"] = design.meta
    if resolution is not None:
        position = dict(zip(order, range(len(order))))
        data["classes"] = [sorted(map(position.__getitem__, cls)) for cls in resolution.classes]
    return _spliced(data, "blocks", blocks)


def design_from_json(text: str) -> tuple[MixedDesign, Resolution | None]:
    data, copies = _load_blocks(text, "blocks", 3)
    for key in ("alphabet", "t", "k", "blocks"):
        _require(key in data, f"missing key {key!r}")
    _require(_is_int(data["t"]) and _is_int(data["k"]), "t and k must be ints")
    _require(copies is not None or isinstance(data["blocks"], list), "blocks must be a list")
    alphabet = _alphabet_from(data["alphabet"])
    blocks = copies[0] if copies is not None else tuple(map(_block_from_list, data["blocks"]))
    meta = data.get("meta", "")
    _require(isinstance(meta, str), "meta must be a string")
    try:
        design = MixedDesign(alphabet, data["t"], data["k"], blocks, meta=meta)
    except (ValueError, AlphabetMismatch) as exc:
        raise FormatError(str(exc)) from exc
    resolution = None
    if "classes" in data:
        _require(isinstance(data["classes"], list), "classes must be a list")
        classes = []
        for cls in data["classes"]:
            if not (isinstance(cls, list) and all(
                _is_int(i) and 0 <= i < len(blocks) for i in cls
            )):
                raise FormatError(f"class must list block indices in range, got {cls!r}")
            classes.append(tuple(cls))
        resolution = Resolution(tuple(classes))
    return design, resolution


def largeset_to_json(ls: LargeSet) -> str:
    data = {
        "alphabet": list(ls.alphabet.sizes),
        "t": ls.t,
        "k": ls.k,
        "lambda": ls.lam,
        "copies": None,
    }
    copies = [_blocks_json([b.support for b in copy])[0] for copy in ls.copies]
    return _spliced(data, "copies", "[" + ",".join(copies) + "]")


def largeset_from_json(text: str) -> LargeSet:
    data, copies = _load_blocks(text, "copies", 4)
    for key in ("alphabet", "t", "k", "copies"):
        _require(key in data, f"missing key {key!r}")
    _require(_is_int(data["t"]) and _is_int(data["k"]), "t and k must be ints")
    lam = data.get("lambda", 1)
    _require(_is_int(lam) and lam >= 1, "lambda must be a positive int")
    _require(copies is not None or isinstance(data["copies"], list), "copies must be a list")
    alphabet = _alphabet_from(data["alphabet"])
    if copies is None:
        copies = []
        for copy in data["copies"]:
            _require(isinstance(copy, list), "each copy must be a list of blocks")
            copies.append(tuple(map(_block_from_list, copy)))
    try:
        return LargeSet(alphabet, data["t"], data["k"], tuple(copies), lam=lam)
    except (ValueError, AlphabetMismatch) as exc:
        raise FormatError(str(exc)) from exc


def cover_to_json(cover: PartitionedCover) -> str:
    data = {
        "n": cover.n,
        "t": cover.t,
        "k": cover.k,
        "R": [list(b) for b in cover.r_blocks],
        "classes": [[list(b) for b in cls] for cls in cover.classes],
    }
    return _dump(data)


def cover_from_json(text: str) -> PartitionedCover:
    data = _load(text)
    for key in ("n", "t", "k", "R", "classes"):
        _require(key in data, f"missing key {key!r}")
    _require(
        all(_is_int(data[key]) for key in ("n", "t", "k")),
        "n, t, k must be ints",
    )

    def block(item) -> tuple[int, ...]:
        if not (isinstance(item, list) and all(_is_int(p) for p in item)):
            raise FormatError(f"point block must be a list of ints, got {item!r}")
        return tuple(item)

    _require(isinstance(data["R"], list), "R must be a list")
    _require(isinstance(data["classes"], list), "classes must be a list")
    r_blocks = tuple(block(b) for b in data["R"])
    classes = []
    for cls in data["classes"]:
        _require(isinstance(cls, list), "each class must be a list of blocks")
        classes.append(tuple(block(b) for b in cls))
    return PartitionedCover(data["n"], data["t"], data["k"], r_blocks, tuple(classes))


def report_to_json(report: VerificationReport) -> str:
    def scrub(value):
        if isinstance(value, float) and math.isinf(value):
            return "Infinite"
        if isinstance(value, Codeword):
            return value.support
        if isinstance(value, dict):
            return {k: scrub(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [scrub(v) for v in value]
        return value

    if report.claim == "oa":
        # the documented OA shape: the violation's fields at the top level,
        # all null when the array passes
        data = {"ok": report.ok, "strength": report.stats["strength"]}
        for field in ("columns", "symbols", "count"):
            data[field] = getattr(report.counterexample, field, None)
        return _dump(data)
    data = {"ok": report.ok, "claim": report.claim, "stats": scrub(report.stats)}
    if report.counterexample is not None:
        ce = report.counterexample
        detail = {"kind": ce.kind, "detail": ce.detail}
        for field in ("word", "count", "pair", "distance", "coordinate", "class_index"):
            value = getattr(ce, field)
            if value is not None:
                detail[field] = scrub(value)
        data["counterexample"] = detail
    return _dump(data)


def oa_to_text(array: OrthogonalArray) -> str:
    """Header 'OA <strength> <columns> <alphabet>' followed by one row per
    line, symbols space-separated."""
    lines = [f"OA {array.strength} {array.columns} {array.alphabet}"]
    lines += [" ".join(str(s) for s in row) for row in array.rows]
    return "\n".join(lines) + "\n"


def oa_from_text(text: str) -> OrthogonalArray:
    """Read the OA text format.  Rows may be space-separated ints or, for
    alphabets of at most ten symbols, unseparated digit strings.  A row of
    `columns` tokens is read through a table of the distinct decimal tokens
    met so far: each is tested with isdecimal and read with int once, the
    first time a row holds it.  Any other row is checked on its own, and an
    error, such as an int past int's digit limit, names the first bad line.
    OrthogonalArray's refusal of the alphabet or a symbol is a FormatError."""
    lines = list(filter(None, map(str.strip, text.splitlines())))
    _require(bool(lines), "empty input")
    head = lines[0].split()
    _require(
        len(head) == 4 and head[0] == "OA" and all(p.isdecimal() for p in head[1:]),
        f"header must be 'OA <strength> <columns> <alphabet>', got {lines[0]!r}",
    )
    rows = []
    ints = {}
    append, read = rows.append, ints.__getitem__
    ln = lines[0]
    try:  # every token int reads is checked decimal first, so only its digit limit fails
        strength, columns, alphabet = (int(p) for p in head[1:])
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) == columns:
                try:
                    append(tuple(map(read, parts)))
                    continue
                except KeyError:
                    # the row's new tokens, in line order, join the table only
                    # when all are decimal; a '-' or any other token meets the
                    # checks below
                    new = dict.fromkeys(p for p in parts if p not in ints)
                    if all(map(str.isdecimal, new)):
                        ints.update(zip(new, map(int, new)))
                        append(tuple(map(read, parts)))
                        continue
            if len(parts) == 1 and columns > 1:
                _require(
                    alphabet <= 10 and len(parts[0]) == columns and parts[0].isdecimal(),
                    f"row {ln!r} is not {columns} digits",
                )
                append(tuple(int(ch) for ch in parts[0]))
            else:
                _require(
                    len(parts) == columns and all(
                        p.isdecimal() or (p.startswith("-") and p[1:].isdecimal())
                        for p in parts
                    ),
                    f"row {ln!r} does not hold {columns} ints",
                )
                append(tuple(map(int, parts)))
    except ValueError:
        raise FormatError(f"line {ln!r} holds an int too long to read") from None
    try:
        return OrthogonalArray(strength, columns, alphabet, tuple(rows))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
