"""Finite fields GF(p^m) as dense lookup tables.

Element labels are 0..q-1; label i stands for the polynomial whose base-p
digits (little-endian) are its coefficients, so 0 and 1 are the additive and
multiplicative identities and labels 0..p-1 are the prime subfield.  The
reducing modulus is the monic irreducible polynomial of degree m whose
non-leading coefficient vector has the smallest base-p little-endian encoding
(found by exhaustive search): x^2+x+1 for GF(4), x^3+x+1 for GF(8), x^2+1 for
GF(9), x^4+x+1 for GF(16).

The tables are built without per-entry polynomial arithmetic.  Addition is
digit-wise mod p, so the add rows are built one base-p digit at a time from
shifted copies of the rows over fewer digits.  Multiplication goes through
discrete logarithms (power and log tables of a primitive element, as in
Lidl and Niederreiter, *Finite Fields*): the powers of the least primitive
element g, q - 1 polynomial products modulo the modulus, list every nonzero
label once, so a*b = g^(log a + log b) for nonzero a and b, and
a^-1 = g^(-log a).  The negation of a is read off its add row, where it
meets 0.  Labels, moduli and every table value are those of polynomial
arithmetic modulo the modulus, entry by entry; the tests compare all four
tables with a schoolbook reference field.
"""

from __future__ import annotations

from itertools import chain

from .errors import NotPrimePower


def prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, m) with q == p**m and p prime, or None."""
    if q < 2:
        return None
    p = None
    n = q
    for d in range(2, q + 1):
        if d * d > q:
            break
        if n % d == 0:
            p = d
            break
    if p is None:
        return (q, 1)  # q itself is prime
    m = 0
    while n % p == 0:
        n //= p
        m += 1
    return (p, m) if n == 1 else None


def _digits(value: int, base: int, width: int) -> tuple[int, ...]:
    out = []
    for _ in range(width):
        out.append(value % base)
        value //= base
    return tuple(out)


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_rem(dividend, divisor, p):
    """Remainder of dividend by a monic divisor, coefficients mod p."""
    rem = [c % p for c in dividend]
    d = len(divisor) - 1
    for top in range(len(rem) - 1, d - 1, -1):
        c = rem[top]
        if c:
            rem[top] = 0
            for j in range(d):
                rem[top - d + j] = (rem[top - d + j] - c * divisor[j]) % p
    return rem[:d]


def _monic(value: int, p: int, degree: int) -> list[int]:
    return list(_digits(value, p, degree)) + [1]


def _is_irreducible(poly, p):
    degree = len(poly) - 1
    for d in range(1, degree // 2 + 1):
        for value in range(p**d):
            if any(_poly_rem(poly, _monic(value, p, d), p)):
                continue
            return False
    return True


def _smallest_irreducible(p: int, m: int) -> list[int]:
    for value in range(p**m):
        candidate = _monic(value, p, m)
        if _is_irreducible(candidate, p):
            return candidate
    raise AssertionError(f"no irreducible polynomial of degree {m} over GF({p})")


def _label(coeffs, p: int) -> int:
    """The label of the polynomial with little-endian coefficients coeffs."""
    label = 0
    for c in reversed(coeffs):
        label = label * p + c
    return label


def _add_rows(p: int, m: int) -> tuple[tuple[int, ...], ...]:
    """add_table of GF(p^m), built one base-p digit at a time.  The rows over
    labels below p^j give those below p^(j+1): label low + p^j*d plus label
    b_low + p^j*e is their sum's label plus p^j*((d + e) mod p), so each new
    row strings together p shifted copies of the old row `low`."""
    rows = [(0,)]
    for j in range(m):
        size = p**j
        shifted = [[tuple(map((s * size).__add__, row)) for s in range(p)] for row in rows]
        rows = [
            tuple(chain.from_iterable(shifted[low][(d + e) % p] for e in range(p)))
            for d in range(p) for low in range(size)
        ]
    return tuple(rows)


def _powers(p: int, modulus) -> list[int]:
    """exp[i] = g^i for i < q - 1, as labels, where g is the least label
    whose powers run through all q - 1 nonzero labels of GF(q) modulo
    `modulus` (a primitive element).  A candidate's walk stops when it
    returns to 1; the primitive one's walk takes q - 1 polynomial products
    and is the table."""
    m = len(modulus) - 1
    q = p**m
    for g in range(1, q):
        digits = _digits(g, p, m)
        power, exp = _digits(1, p, m), [1]
        while True:
            power = _poly_rem(_poly_mul(power, digits, p), modulus, p)
            label = _label(power, p)
            if label == 1:
                break
            exp.append(label)
        if len(exp) == q - 1:
            return exp
    raise AssertionError(f"GF({q}) has no primitive element")


class FiniteField:
    """GF(q) with precomputed addition/multiplication/inverse tables."""

    def __init__(self, q: int):
        pm = prime_power(q)
        if pm is None:
            raise NotPrimePower(f"{q} is not a prime power")
        self.q = q
        self.p, self.m = pm
        self.modulus = tuple(_smallest_irreducible(self.p, self.m))
        self.add_table = _add_rows(self.p, self.m)
        exp = _powers(self.p, self.modulus)
        log = [0] * q
        for i, a in enumerate(exp):
            log[a] = i
        # row a, a != 0, holds exp[log a + log b] at b != 0; exp twice over
        # spares the sum its reduction mod q - 1
        twice = exp + exp
        logs = log[1:]
        self.mul_table = ((0,) * q,) + tuple(
            (0,) + tuple(map(twice[la:la + q - 1].__getitem__, logs)) for la in logs
        )
        self.neg_table = tuple(row.index(0) for row in self.add_table)
        self.inv_table = (None,) + tuple(exp[-la % (q - 1)] for la in logs)

    @property
    def elements(self) -> range:
        return range(self.q)

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def sub(self, a: int, b: int) -> int:
        return self.add_table[a][self.neg_table[b]]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.inv_table[a]

    def __repr__(self) -> str:
        return f"FiniteField({self.q})"


def field_create(q: int) -> FiniteField:
    """Build GF(q).  Raises NotPrimePower when q is not a prime power >= 2."""
    return FiniteField(q)
