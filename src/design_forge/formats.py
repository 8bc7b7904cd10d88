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

from .constructions import PartitionedCover
from .core import Codeword, LargeSet, MixedAlphabet, MixedDesign, Resolution
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
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from exc
    _require(isinstance(data, dict), "top level must be a JSON object")
    return data


def _dump(data) -> str:
    return json.dumps(data, separators=(",", ":"), sort_keys=True) + "\n"


def _block_to_list(block: Codeword) -> list[list[int]]:
    return [[c, s] for c, s in block.support]


def _block_from_list(item) -> Codeword:
    _require(isinstance(item, list), f"block must be a list, got {type(item).__name__}")
    support = []
    for pair in item:
        _require(
            isinstance(pair, list) and len(pair) == 2
            and _is_int(pair[0]) and _is_int(pair[1]),
            f"block entry must be a [coordinate, symbol] pair, got {pair!r}",
        )
        support.append((pair[0], pair[1]))
    try:
        return Codeword(tuple(support))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def _alphabet_from(data) -> MixedAlphabet:
    _require(
        isinstance(data, list) and data and all(_is_int(s) for s in data),
        "alphabet must be a nonempty list of ints",
    )
    try:
        return MixedAlphabet(tuple(data))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def design_to_json(design: MixedDesign, resolution: Resolution | None = None) -> str:
    """Canonical JSON for a design: blocks sorted by support, resolution
    class indices remapped to the sorted order."""
    order = sorted(range(len(design.blocks)), key=lambda i: design.blocks[i].support)
    position = {old: new for new, old in enumerate(order)}
    data = {
        "alphabet": list(design.alphabet.sizes),
        "t": design.t,
        "k": design.k,
        "blocks": [_block_to_list(design.blocks[i]) for i in order],
    }
    if design.meta:
        data["meta"] = design.meta
    if resolution is not None:
        data["classes"] = [sorted(position[i] for i in cls) for cls in resolution.classes]
    return _dump(data)


def design_from_json(text: str) -> tuple[MixedDesign, Resolution | None]:
    data = _load(text)
    for key in ("alphabet", "t", "k", "blocks"):
        _require(key in data, f"missing key {key!r}")
    _require(_is_int(data["t"]) and _is_int(data["k"]), "t and k must be ints")
    _require(isinstance(data["blocks"], list), "blocks must be a list")
    alphabet = _alphabet_from(data["alphabet"])
    blocks = tuple(_block_from_list(b) for b in data["blocks"])
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
            _require(
                isinstance(cls, list) and all(
                    _is_int(i) and 0 <= i < len(blocks) for i in cls
                ),
                f"class must list block indices in range, got {cls!r}",
            )
            classes.append(tuple(cls))
        resolution = Resolution(tuple(classes))
    return design, resolution


def largeset_to_json(ls: LargeSet) -> str:
    data = {
        "alphabet": list(ls.alphabet.sizes),
        "t": ls.t,
        "k": ls.k,
        "lambda": ls.lam,
        "copies": [
            [_block_to_list(b) for b in sorted(copy, key=lambda b: b.support)]
            for copy in ls.copies
        ],
    }
    return _dump(data)


def largeset_from_json(text: str) -> LargeSet:
    data = _load(text)
    for key in ("alphabet", "t", "k", "copies"):
        _require(key in data, f"missing key {key!r}")
    _require(_is_int(data["t"]) and _is_int(data["k"]), "t and k must be ints")
    lam = data.get("lambda", 1)
    _require(_is_int(lam) and lam >= 1, "lambda must be a positive int")
    _require(isinstance(data["copies"], list), "copies must be a list")
    alphabet = _alphabet_from(data["alphabet"])
    copies = []
    for copy in data["copies"]:
        _require(isinstance(copy, list), "each copy must be a list of blocks")
        copies.append(tuple(_block_from_list(b) for b in copy))
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
        _require(
            isinstance(item, list) and all(_is_int(p) for p in item),
            f"point block must be a list of ints, got {item!r}",
        )
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
            return _block_to_list(value)
        if isinstance(value, dict):
            return {k: scrub(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [scrub(v) for v in value]
        return value

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
    alphabets of at most ten symbols, unseparated digit strings."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    _require(bool(lines), "empty input")
    head = lines[0].split()
    _require(
        len(head) == 4 and head[0] == "OA" and all(p.isdigit() for p in head[1:]),
        f"header must be 'OA <strength> <columns> <alphabet>', got {lines[0]!r}",
    )
    strength, columns, alphabet = (int(p) for p in head[1:])
    rows = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) == 1 and columns > 1:
            _require(
                alphabet <= 10 and len(parts[0]) == columns and parts[0].isdigit(),
                f"row {ln!r} is not {columns} digits",
            )
            row = tuple(int(ch) for ch in parts[0])
        else:
            _require(
                len(parts) == columns and all(
                    p.isdigit() or (p.startswith("-") and p[1:].isdigit()) for p in parts
                ),
                f"row {ln!r} does not hold {columns} ints",
            )
            row = tuple(int(p) for p in parts)
        _require(
            all(0 <= s < alphabet for s in row),
            f"row {ln!r} has symbols outside 0..{alphabet - 1}",
        )
        rows.append(row)
    return OrthogonalArray(strength, columns, alphabet, tuple(rows))
