"""Correctness gate: every operation's outcome is checked, and a wrong one
counts as failed.

* Outputs whose inputs come from a finite set (every construct, every verify
  of a valid file, every transform) must match the sha256 digests in
  ``digests.json``, recorded from the seed commit with
  ``python3 bench/run.py --record-digests``.
* A rejecting verify must carry a counterexample that holds when re-checked
  with the program's ``covers`` and ``hamming_distance`` on the benchmark's
  own copy of the input, and that names the first violation the benchmark
  predicted where it can predict one.
* An ``ms1`` design must pass the benchmark's own check, and a refusal must
  agree with the benchmark's own arithmetic.

Each check returns an error message, or None when the outcome is right.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

DIGESTS = Path(__file__).with_name("digests.json")


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def digest(rc: int, out: str, err: str, file_text: str | None) -> str:
    h = hashlib.sha256(f"rc={rc}\n".encode())
    for part in (out, err, file_text or ""):
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


def _word(lib, pairs):
    return lib.Codeword(tuple(tuple(p) for p in pairs))


def _ce(report: str) -> dict | None:
    data = json.loads(report)
    if data.get("ok") is not False:
        return None
    return data.get("counterexample", data)


def recheck_coverage(lib, report: str, sizes, blocks, expect=None) -> str | None:
    """A 'coverage' counterexample: the word's true cover count is not 1."""
    ce = _ce(report)
    if ce is None or ce.get("kind") != "coverage":
        return f"want a coverage counterexample, got {report.strip()[:200]}"
    alphabet = lib.MixedAlphabet(tuple(sizes))
    word = _word(lib, ce["word"])
    count = sum(1 for b in blocks if lib.covers(_word(lib, b), word, alphabet))
    if count != ce["count"] or count == 1:
        return f"counterexample word {ce['word']} is covered {count} times, report says {ce['count']}"
    if expect is not None and (word.support, count) != (tuple(expect[0]), expect[1]):
        return f"first violation is {expect}, report names {ce['word']} x{ce['count']}"
    return None


def recheck_distance(lib, report: str, sizes, blocks) -> str | None:
    """A 'distance' counterexample: two blocks closer than required."""
    data = json.loads(report)
    ce = data.get("counterexample")
    if data.get("ok") is not False or ce is None or ce.get("kind") != "distance":
        return f"want a distance counterexample, got {report.strip()[:200]}"
    alphabet = lib.MixedAlphabet(tuple(sizes))
    u, v = (_word(lib, p) for p in ce["pair"])
    present = {tuple(tuple(p) for p in b) for b in blocks}
    if u.support not in present or v.support not in present:
        return "counterexample pair is not two blocks of the design"
    d = lib.hamming_distance(u, v, alphabet)
    if d != ce["distance"] or d >= data["stats"]["required_distance"]:
        return f"counterexample pair is at distance {d}, report says {ce['distance']}"
    return None


def recheck_multiplicity(report: str, copies, expect) -> str | None:
    """A large-set 'multiplicity' counterexample: the word is a block of a
    number of copies other than lambda = 1."""
    ce = _ce(report)
    if ce is None or ce.get("kind") != "multiplicity":
        return f"want a multiplicity counterexample, got {report.strip()[:200]}"
    word = tuple(tuple(p) for p in ce["word"])
    count = sum(1 for copy in copies if word in {tuple(b) for b in copy})
    if count != ce["count"] or count == 1:
        return f"word {ce['word']} is a block of {count} copies, report says {ce['count']}"
    if (word, count) != (tuple(expect[0]), expect[1]):
        return f"first violation is {expect}, report names {ce['word']} x{ce['count']}"
    return None


def recheck_parallel(report: str, blocks, classes) -> str | None:
    """A resolution 'parallel' counterexample: a coordinate met other than
    once by one class."""
    ce = _ce(report)
    if ce is None or ce.get("kind") != "parallel":
        return f"want a parallel-class counterexample, got {report.strip()[:200]}"
    cls = classes[ce["class_index"]]
    count = sum(1 for i in cls for c, _ in blocks[i] if c == ce["coordinate"])
    if count != ce["count"] or count == 1:
        return f"coordinate {ce['coordinate']} appears {count} times in class, report says {ce['count']}"
    return None


def recheck_oa(report: str, rows) -> str | None:
    """An orthogonal-array violation: a column set carries a symbol tuple
    other than once."""
    ce = _ce(report)
    if ce is None or ce.get("columns") is None:
        return f"want an orthogonal-array violation, got {report.strip()[:200]}"
    cols, syms = ce["columns"], ce["symbols"]
    count = sum(1 for r in rows if [r[c] for c in cols] == syms)
    if count != ce["count"] or count == 1:
        return f"columns {cols} carry {syms} {count} times, report says {ce['count']}"
    return None


def ms1_arith_feasible(sizes, k: int) -> bool:
    """The necessary condition for MS(1, k, Q), computed here: with sizes
    ascending, sum_{i<n}(q_i - 1) - (q_n - 1)(k - 1) is >= 0 and divisible by k."""
    q = sorted(sizes)
    d = sum(s - 1 for s in q[:-1]) - (q[-1] - 1) * (k - 1)
    return d >= 0 and d % k == 0


def check_ms1_design(sizes, k: int, design) -> str | None:
    """Every nonzero symbol is used exactly once, every block has weight k,
    and two blocks share at most one coordinate."""
    q = tuple(sorted(sizes))
    if tuple(design.alphabet.sizes) != q or design.t != 1 or design.k != k:
        return f"design shape {design.alphabet.sizes} t={design.t} k={design.k}"
    used = [b.support for b in design.blocks]
    if any(len(s) != k for s in used):
        return "a block does not have weight k"
    pairs = sorted(p for s in used for p in s)
    want = [(c, s) for c, size in enumerate(q) for s in range(1, size)]
    if pairs != want:
        return "nonzero symbols are not each used exactly once"
    coords = [{c for c, _ in s} for s in used]
    for i, a in enumerate(coords):
        for b in coords[i + 1:]:
            if len(a & b) > 1:
                return "two blocks share more than one coordinate"
    return None
