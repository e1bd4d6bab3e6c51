"""Straightforward reference implementations.

The ``*_naive`` functions work on plain bit lists with explicit index
arithmetic, independent of the package's bit-packed kernels, so the two
paths can be checked against each other.  The rest are the package's former
implementations, kept as differential oracles of the faster ones:
``from_string_reference`` is the per-character parser,
``from_bits_reference`` the per-bit OR of ``from_bits``,
``_decimate_word`` the per-bit decimation loop,
``build_support`` the literal support set of a construction, with
``characteristic_reference`` its per-residue construction word, and
``oacf_equivalent_reference`` the unpruned witness search, on this
module's own doubled word ``_doubled`` and rotation ``_rotated`` rather
than the package's continued word, which it is there to check.
``orbit_count`` counts the classes among all sequences of one period by
Burnside's lemma, with no search at all.
"""

import math
import operator
from dataclasses import dataclass

from oacf.constructions import (
    ConstructionSpec,
    _check_parity,
    crt_iso,
    expand_g,
    expand_gamma_indices,
)
from oacf.cyclotomy import CSET_PAIRS, CyclotomicSystem
from oacf.sequences import BinarySequence, SequenceParseError

_SEPARATORS = " \t\r\n,"


def from_string_reference(text: str) -> BinarySequence:
    """Parse a '0'/'1' literal one character at a time; whitespace and
    commas are ignored."""
    word = 0
    n = 0
    for pos, ch in enumerate(text):
        if ch == "1":
            word |= 1 << n
            n += 1
        elif ch == "0":
            n += 1
        elif ch in _SEPARATORS:
            continue
        else:
            raise SequenceParseError(
                f"invalid character {ch!r} at position {pos}", pos
            )
    if n == 0:
        raise SequenceParseError("empty sequence literal", 0)
    return BinarySequence(word, n)


def from_bits_reference(bits) -> BinarySequence:
    """Build a sequence from 0/1 items, ORing each bit into a growing word.
    An item must be an integer (have ``__index__``) equal to 0 or 1."""
    word = 0
    n = 0
    for b in bits:
        try:
            bit = operator.index(b)
        except TypeError:
            bit = None
        if bit not in (0, 1):
            raise ValueError(f"bit values must be 0 or 1, got {b!r}")
        word |= bit << n
        n += 1
    return BinarySequence(word, n)


def _sign(exponent: int) -> int:
    # (-1) ** exponent, kept in exact integers for negative exponents too
    return 1 if exponent % 2 == 0 else -1


def pacf_naive(bits: list[int], tau: int) -> int:
    n = len(bits)
    return sum(_sign(bits[i] - bits[(i + tau) % n]) for i in range(n))


def oacf_naive(bits: list[int], tau: int) -> int:
    # the floor term uses the un-reduced index i + tau in [0, 2N)
    n = len(bits)
    return sum(
        _sign(bits[i] - bits[(i + tau) % n] + (i + tau) // n) for i in range(n)
    )


def negate_naive(bits: list[int]) -> list[int]:
    return [(b + 1) % 2 for b in bits]


def cyclic_shift_naive(bits: list[int], tau: int) -> list[int]:
    return bits[tau:] + bits[:tau]


def nega_cyclic_shift_naive(bits: list[int], tau: int) -> list[int]:
    return bits[tau:] + [(b + 1) % 2 for b in bits[:tau]]


def decimate_naive(bits: list[int], d: int) -> list[int]:
    n = len(bits)
    return [bits[d * i % n] for i in range(n)]


def nega_decimate_naive(bits: list[int], d: int) -> list[int]:
    # s'(tau) = s(d*tau mod N) + floor((d*tau mod 2N) / N), mod 2
    n = len(bits)
    return [
        (bits[d * tau % n] + (d * tau % (2 * n)) // n) % 2 for tau in range(n)
    ]


def apply_witness_naive(bits: list[int], d: int, t: int) -> list[int]:
    # s'(i) = u(d*i + t mod 2N) with u = s || (s + 1)
    u = bits + negate_naive(bits)
    return [u[(d * i + t) % len(u)] for i in range(len(bits))]


def oacf_equivalent_naive(bits: list[int], target: list[int]) -> tuple[int, int] | None:
    # brute force over every d in Z*_{2N}, t in Z_{2N}; the lexicographically
    # smallest (d, t) mapping bits to target, or None
    two_n = 2 * len(bits)
    for d in range(1, two_n):
        if math.gcd(d, two_n) != 1:
            continue
        for t in range(two_n):
            if apply_witness_naive(bits, d, t) == target:
                return d, t
    return None


@dataclass(frozen=True)
class CSet:
    """One of the six pairwise unions C1..C6 of the cyclotomic classes."""

    index: int
    members: frozenset[int]


def cset(system: CyclotomicSystem, index: int) -> CSet:
    if index not in CSET_PAIRS:
        raise ValueError(f"C-set index must be in [1, 6], got {index}")
    j, k = CSET_PAIRS[index]
    return CSet(index, system.classes[j] | system.classes[k])


def expand_gamma(gamma, system: CyclotomicSystem) -> tuple[frozenset[int], ...]:
    """The eight subsets A0..A7 of Z_p \\ {0} named by ``gamma``."""
    return tuple(cset(system, i).members for i in expand_gamma_indices(gamma))


@dataclass(frozen=True)
class SupportSet:
    """Residues in Z_modulus whose characteristic sequence is u."""

    modulus: int
    residues: frozenset[int]


def build_support(spec: ConstructionSpec, system: CyclotomicSystem) -> SupportSet:
    """Support of u in Z_{8p}: the G x {0} part plus the {n} x A_n parts."""
    _check_parity(spec, system)
    eta, _ = crt_iso(system.p)
    residues = {eta(g, 0) for g in expand_g(spec.g_prime)}
    for n, a_n in enumerate(expand_gamma(spec.gamma, system)):
        residues.update(eta(n, a) for a in a_n)
    return SupportSet(8 * system.p, frozenset(residues))


def characteristic_reference(support) -> BinarySequence:
    """Characteristic sequence of a ``SupportSet``, one OR per residue."""
    word = 0
    for r in support.residues:
        word |= 1 << r
    return BinarySequence(word, support.modulus)


def _decimate_word(word: int, n: int, d: int) -> int:
    # bit i of the result is bit d*i mod n of the n-bit word
    out = 0
    for i in range(n):
        out |= ((word >> (d * i % n)) & 1) << i
    return out


def _doubled(s: BinarySequence) -> int:
    # 2N-bit word of s || (s + 1)
    n = s.period
    return s.word | ((s.word ^ ((1 << n) - 1)) << n)


def _rotated(word: int, m: int, r: int) -> int:
    # bit i of the result is bit (i + r) mod m of the m-bit word
    return ((word >> r) | (word << (m - r))) & ((1 << m) - 1)


def _unit_range(two_n: int):
    # d must be odd; remaining coprimality checked against two_n
    for d in range(1, two_n, 2):
        if math.gcd(d, two_n) == 1:
            yield d


def oacf_equivalent_reference(s, s_prime) -> tuple[int, int] | None:
    """Exhaustive search over all witnesses (d, t) on the bit-packed words;
    returns the lexicographically smallest one mapping s to s_prime, or None."""
    if s.period != s_prime.period:
        raise ValueError(
            f"periods differ: {s.period} != {s_prime.period}"
        )
    n = s.period
    two_n = 2 * n
    u = _doubled(s)
    target = _doubled(s_prime)
    for d in _unit_range(two_n):
        decimated = _decimate_word(u, two_n, d)
        d_inv = pow(d, -1, two_n)
        for t in range(two_n):
            if _rotated(decimated, two_n, d_inv * t % two_n) == target:
                return d, t
    return None


def _parity_colourings(size: int, edges) -> int:
    """Number of 2-colourings of range(size) such that each edge (a, b,
    differ) joins equal colours (differ = 0) or unequal ones (differ = 1):
    2^components by a union-find with parity, or 0 on an inconsistent cycle."""
    parent = list(range(size))
    parity = [0] * size  # colour of a node xor colour of its parent

    def find(i: int) -> tuple[int, int]:
        flip = 0
        while parent[i] != i:
            flip ^= parity[i]
            i = parent[i]
        return i, flip

    components = size
    for a, b, differ in edges:
        (ra, fa), (rb, fb) = find(a), find(b)
        if ra == rb:
            if fa ^ fb != differ:
                return 0
        else:
            parent[ra], parity[ra] = rb, fa ^ fb ^ differ
            components -= 1
    return 2 ** components


def orbit_count(n: int) -> int:
    """Number of classes among all 2^n sequences of period n, by Burnside's
    lemma over the phi(2n)*2n witnesses (d, t).

    A witness fixes s exactly when u(d*i + t) = u(i) for u = s || (s + 1),
    so the sequences it fixes are the colourings of Z_{2n} with i and
    d*i + t equal and i and i + n unequal."""
    two_n = 2 * n
    flips = [(i, i + n, 1) for i in range(n)]
    witnesses = [(d, t) for d in _unit_range(two_n) for t in range(two_n)]
    fixed = sum(
        _parity_colourings(two_n, flips + [(i, (d * i + t) % two_n, 0) for i in range(two_n)])
        for d, t in witnesses
    )
    count, rest = divmod(fixed, len(witnesses))
    assert rest == 0, "Burnside's average must be a whole number"
    return count
