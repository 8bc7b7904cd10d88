"""Input generators for the benchmark, written with the standard library only.

Every design the program is asked to check is built here, independently of
the program, so that set-up time does not move when the program's own
constructors change.  Blocks are lists of ``(coordinate, symbol)`` pairs in
coordinate order, the same sparse form the program's JSON uses.

Corruptions delete, duplicate or perturb one block, class or row.  Where the
verifier walks its words in order to find the first violation, the walk
length sets the rejection time.  So the seed draws a sample of candidate
corruptions, sorts them by where their first violating word sits in that
order, and picks one from the middle band (``WINDOW``).  Runs with different
seeds then reject after walking about the same share of the words, the share
a typical corruption costs.
"""

from __future__ import annotations

import json
import random
from itertools import combinations

WINDOW = (0.45, 0.55)


# --------------------------------------------------------------------------
# finite fields GF(2^m)
# --------------------------------------------------------------------------

MODULI = {16: (4, 0b10011), 32: (5, 0b100101)}  # x^4+x+1, x^5+x^2+1


def gf2m_mul(a: int, b: int, q: int = 32) -> int:
    """Product in GF(q), q a power of two, with elements as bit vectors."""
    m, poly = MODULI[q]
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> m:
            a ^= poly
    return out


def oa_square_rows(q: int = 32) -> list[tuple[int, ...]]:
    """OA(2, q, q) over GF(q): row (a, b) holds a*x + b at column x."""
    return [
        tuple(gf2m_mul(a, x, q) ^ b for x in range(q)) for a in range(q) for b in range(q)
    ]


def oa_extended_text(q: int = 32) -> tuple[str, list[tuple[int, ...]]]:
    """OA(2, q+1, q): oa_square rows with the multiplier appended."""
    rows = [row + (i // q,) for i, row in enumerate(oa_square_rows(q))]
    lines = [f"OA 2 {q + 1} {q}"] + [" ".join(map(str, r)) for r in rows]
    return "\n".join(lines) + "\n", rows


# --------------------------------------------------------------------------
# designs
# --------------------------------------------------------------------------

def steiner_449() -> list[list[tuple[int, int]]]:
    """S(2, 8, 449) developed from a radical difference family over Z_449.

    Base block {0} u m*C for the 7th roots of unity C, with multipliers
    m = 3^e for the exponents below; their differences hit every nonzero
    residue exactly once, which is checked here."""
    p, g = 449, 3
    roots = [pow(g, 64 * j, p) for j in range(7)]
    bases = [[0] + [pow(g, e, p) * r % p for r in roots] for e in (0, 6, 8, 14, 16, 22, 24, 30)]
    diffs = sorted((a - b) % p for base in bases for a in base for b in base if a != b)
    if diffs != list(range(1, p)):
        raise RuntimeError("the S(2,8,449) base blocks do not form a difference family")
    blocks = {tuple(sorted((x + s) % p for x in base)) for base in bases for s in range(p)}
    return [[(c, 1) for c in b] for b in sorted(blocks)]


def affine_32() -> tuple[list[list[tuple[int, int]]], list[list[int]]]:
    """Affine plane of order 32 over points x*32 + y, with its 33 parallel
    classes: lines y = m*x + c by slope m, then the verticals."""
    q = 32
    blocks, classes = [], []
    for m in range(q):
        classes.append([len(blocks) + c for c in range(q)])
        for c in range(q):
            blocks.append(sorted((x * q + (gf2m_mul(m, x) ^ c), 1) for x in range(q)))
    classes.append([len(blocks) + c for c in range(q)])
    for c in range(q):
        blocks.append([(c * q + y, 1) for y in range(q)])
    return blocks, classes


def oa_gdd(k: int, r: int) -> tuple[list[int], list[list[tuple[int, int]]]]:
    """GDD of type 1^{rk} k^{k-r} from OA(2, k, k), k in MODULI: r disjoint
    binary blocks plus one block per OA row (the program's oa-gdd family)."""
    sizes = [2] * (r * k) + [k + 1] * (k - r)
    blocks = [[(i * k + c, 1) for c in range(k)] for i in range(r)]
    for row in oa_square_rows(k):
        blocks.append(
            [(i * k + row[i], 1) for i in range(r)]
            + [(r * k + (i - r), row[i] + 1) for i in range(r, k)]
        )
    return sizes, blocks


def sum_large_set(g: int = 10, t: int = 3) -> list[list[tuple[tuple[int, int], ...]]]:
    """LH(t+1, g, t+1, t): copy j holds the transversal words over
    Z_{g+1}^{t+1} whose symbol sum is j mod g."""
    copies: list[list] = [[] for _ in range(g)]
    for i in range(g ** (t + 1)):
        syms = [(i // g**e) % g + 1 for e in range(t, -1, -1)]
        copies[sum(syms) % g].append(tuple(enumerate(syms)))
    return copies


def fold(copies) -> list[tuple[tuple[int, int], ...]]:
    """The large set folded into one GDD: copy j (1-based) at a hole coordinate."""
    n = len(copies[0][0])
    return [b + ((n, j),) for j, copy in enumerate(copies, start=1) for b in copy]


def design_json(sizes, t, k, blocks, classes=None) -> str:
    data = {"alphabet": list(sizes), "t": t, "k": k, "blocks": [[list(p) for p in b] for b in blocks]}
    if classes is not None:
        data["classes"] = classes
    return json.dumps(data, separators=(",", ":"))


def largeset_json(sizes, t, k, copies) -> str:
    data = {
        "alphabet": list(sizes), "t": t, "k": k, "lambda": 1,
        "copies": [[[list(p) for p in b] for b in copy] for copy in copies],
    }
    return json.dumps(data, separators=(",", ":"))


# --------------------------------------------------------------------------
# position of a word in the verifiers' enumeration order
# --------------------------------------------------------------------------

class WordOrder:
    """Rank of a weight-t word in the order the program enumerates words:
    coordinate sets in lexicographic order, then symbol vectors in product
    order.  Counts use elementary symmetric sums of the group sizes."""

    def __init__(self, sizes, t: int):
        g = [s - 1 for s in sizes]
        n = len(g)
        e = [[0] * (t + 1) for _ in range(n + 1)]  # e[v][m]: e_m(g[v:])
        e[n][0] = 1
        for v in range(n - 1, -1, -1):
            e[v][0] = 1
            for m in range(1, t + 1):
                e[v][m] = e[v + 1][m] + g[v] * e[v + 1][m - 1]
        # before[m][v] = sum over u < v of g[u] * e[u+1][m]
        self.before = [[0] * (n + 1) for _ in range(t + 1)]
        for m in range(t + 1):
            acc = 0
            for v in range(n):
                self.before[m][v] = acc
                acc += g[v] * e[v + 1][m]
            self.before[m][n] = acc
        self.g, self.t, self.total = g, t, e[0][t]

    def rank(self, word) -> int:
        t, g, before = self.t, self.g, self.before
        total, prefix, prev = 0, 1, -1
        for i, (c, _) in enumerate(word):
            row = before[t - i - 1]
            total += prefix * (row[c] - row[prev + 1])
            prefix *= g[c]
            prev = c
        sym = 0
        for c, s in word:
            sym = sym * g[c] + (s - 1)
        return total + sym


# --------------------------------------------------------------------------
# corruptions
# --------------------------------------------------------------------------

def _perturbed(block, sizes, rng):
    """Move the block's last pair to another symbol or, on a binary
    coordinate, to a coordinate the block does not use."""
    rest, (c, s) = list(block[:-1]), block[-1]
    if sizes[c] > 2:
        return rest + [(c, rng.choice([v for v in range(1, sizes[c]) if v != s]))]
    used = {x for x, _ in block}
    while True:
        c2 = rng.randrange(len(sizes))
        if c2 not in used and sizes[c2] == 2:
            return sorted(rest + [(c2, 1)])


SAMPLE = 400


def _middle(candidates, rng):
    """A candidate drawn from the middle band (WINDOW) of the candidates
    sorted by where their first violation sits in the walk order."""
    candidates.sort(key=lambda c: c[0])
    lo, hi = (int(len(candidates) * f) for f in WINDOW)
    return candidates[rng.randrange(lo, max(hi, lo + 1))][1]


def corrupt_blocks(sizes, t, blocks, rng, kind: str):
    """Delete, duplicate or perturb one block of a design that satisfies
    exact t-coverage.

    Returns (new block list, first violating word, its cover count): the
    word is the first in enumeration order whose count changed."""
    order = WordOrder(sizes, t)
    candidates = []
    for i in rng.sample(range(len(blocks)), min(SAMPLE, len(blocks))):
        old = [tuple(p) for p in blocks[i]]
        new, first, count = None, tuple(old[:t]), 0 if kind == "delete" else 2
        if kind == "perturb":
            new = _perturbed(old, sizes, rng)
            lost = set(combinations(old, t))
            first = min(lost ^ set(combinations(new, t)), key=order.rank)
            count = 0 if first in lost else 2
        candidates.append((order.rank(first), (i, old, new, first, count)))
    i, old, new, first, count = _middle(candidates, rng)
    out = [list(b) for b in blocks]
    if kind == "delete":
        del out[i]
    elif kind == "duplicate":
        out.append(old)
    else:
        out[i] = new
    return out, first, count


def corrupt_large_set(sizes, copies, rng, kind: str):
    """Delete, duplicate or perturb one block of one copy of a large set
    with lam = 1; returns (new copies, first word whose multiplicity
    changed, multiplicity).  A duplicate goes into the next copy, so the
    word's multiplicity is 2."""
    order = WordOrder(sizes, len(sizes))
    candidates = []
    for _ in range(SAMPLE):
        j = rng.randrange(len(copies))
        i = rng.randrange(len(copies[j]))
        word = copies[j][i]
        new = tuple(_perturbed(word, sizes, rng)) if kind == "perturb" else None
        first = min((word, new), key=order.rank) if new else word
        candidates.append((order.rank(first), (j, i, word, new, first)))
    j, i, word, new, first = _middle(candidates, rng)
    out = [list(c) for c in copies]
    if kind == "delete":
        del out[j][i]
    elif kind == "duplicate":
        out[(j + 1) % len(out)].append(word)
    else:
        out[j][i] = new
    return out, first, (0 if first == word and kind != "duplicate" else 2)


def corrupt_resolution(blocks, classes, rng, kind: str):
    """Break parallelism in one class while keeping the classes a partition:
    delete a block, add a second copy of one, or (perturb) swap blocks
    across classes.  Returns (blocks, classes)."""
    lo, hi = (int(len(classes) * f) for f in WINDOW)
    ci = rng.randrange(lo, max(hi, lo + 1))
    pos = rng.randrange(len(classes[ci]))
    b = classes[ci][pos]
    blocks = [list(x) for x in blocks]
    classes = [list(c) for c in classes]
    if kind == "delete":
        del blocks[b]
        classes = [[x - (x > b) for x in c if x != b] for c in classes]
    elif kind == "duplicate":
        blocks.append(list(blocks[b]))
        classes[ci].append(len(blocks) - 1)
    else:
        cj = rng.choice([c for c in range(len(classes)) if c != ci])
        other = rng.randrange(len(classes[cj]))
        classes[ci][pos], classes[cj][other] = classes[cj][other], classes[ci][pos]
    return blocks, classes


def corrupt_oa(rows, q, rng, kind: str):
    """Delete or duplicate a row, or change one entry; returns (rows, text)."""
    rows = [list(r) for r in rows]
    i = rng.randrange(len(rows))
    if kind == "delete":
        del rows[i]
    elif kind == "duplicate":
        rows.append(list(rows[i]))
    else:  # the check fails at column pair (0, c): c from the middle band
        lo, hi = (int(len(rows[i]) * f) for f in WINDOW)
        c = rng.randrange(lo, hi)
        rows[i][c] = (rows[i][c] + rng.randrange(1, q)) % q
    header = f"OA 2 {len(rows[0])} {q}"
    text = "\n".join([header] + [" ".join(map(str, r)) for r in rows]) + "\n"
    return rows, text


def new_rng(seed: int, label: str) -> random.Random:
    """An RNG per input, so adding one input never shifts another's draws."""
    return random.Random(f"{seed}:{label}")
