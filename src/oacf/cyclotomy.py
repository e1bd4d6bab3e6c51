"""Quartic cyclotomy over GF(p) for primes p = x^2 + 4y^2 = 4f + 1.

Fixes a generator alpha of the multiplicative group and partitions
Z_p \\ {0} into the four cyclotomic classes of order 4,
D_k = { alpha^(4s+k) : 0 <= s < f }, plus the six two-class unions C1..C6.
"""

import math
from itertools import count

from .sequences import _record

__all__ = [
    "MAX_P",
    "CyclotomicSystem",
    "is_prime",
    "quartic_decomposition",
    "smallest_primitive_root",
    "is_primitive_root",
    "build_system",
    "complement_cset_index",
]

# C-set index -> the pair of D-class indices it unites
CSET_PAIRS = {1: (0, 1), 2: (0, 2), 3: (0, 3), 4: (1, 2), 5: (1, 3), 6: (2, 3)}

# checked before any trial division; a verify_table row at 9973 takes
# about 3 ms (Python 3.11, one Xeon core)
MAX_P = 10_000


def _check_p_limit(p: int) -> None:
    if p > MAX_P:
        raise ValueError(f"p must be at most MAX_P = {MAX_P}, got {p}")


def _prime_factors(n: int):
    """The distinct prime factors of n > 1, smallest first, by trial division."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            yield d
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        yield n


def is_prime(n: int) -> bool:
    """Deterministic trial division; adequate for desk-scale p."""
    return n > 1 and next(_prime_factors(n)) == n


def quartic_decomposition(p: int) -> tuple[int, int, int]:
    """The unique (x, y, f) with p = x^2 + 4y^2 = 4f + 1, x = 1 (mod 4), y >= 0.

    Raises ValueError unless p is a prime congruent to 1 mod 4.
    """
    if not is_prime(p) or p % 4 != 1:
        raise ValueError(f"p must be a prime with p = 1 (mod 4), got {p}")
    # Fermat's two-square theorem: p = x^2 + (2y)^2 for some y, so the search ends
    y = next(y for y in count() if math.isqrt(p - 4 * y * y) ** 2 == p - 4 * y * y)
    x = math.isqrt(p - 4 * y * y)
    return (x if x % 4 == 1 else -x), y, (p - 1) // 4


def smallest_primitive_root(p: int) -> int:
    """Smallest g in [2, p) of multiplicative order p - 1 mod p."""
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be a prime >= 3, got {p}")
    return next(g for g in range(2, p) if is_primitive_root(g, p))


def is_primitive_root(g: int, p: int) -> bool:
    if g % p == 0:
        return False
    return all(pow(g, (p - 1) // q, p) != 1 for q in _prime_factors(p - 1))


@_record()
class CyclotomicSystem:
    """Prime p with quartic decomposition, a fixed generator, and the four
    order-4 cyclotomic classes (which partition Z_p \\ {0})."""

    p: int
    x: int
    y: int
    f: int
    alpha: int
    classes: tuple[frozenset[int], ...]


def build_system(p: int, alpha: int | None = None) -> CyclotomicSystem:
    """Build the order-4 cyclotomic system for p; ``alpha`` defaults to the
    smallest primitive root and may be overridden by any other generator."""
    _check_p_limit(p)
    x, y, f = quartic_decomposition(p)
    if alpha is None:
        alpha = smallest_primitive_root(p)
    elif not is_primitive_root(alpha, p):
        raise ValueError(f"{alpha} is not a primitive root mod {p}")
    members: list[set[int]] = [set(), set(), set(), set()]
    val = 1
    for e in range(p - 1):
        members[e % 4].add(val)
        val = val * alpha % p
    return CyclotomicSystem(p, x, y, f, alpha % p, tuple(frozenset(m) for m in members))


def complement_cset_index(index: int) -> int:
    """C_i and C_(7-i) partition Z_p \\ {0}."""
    if index not in CSET_PAIRS:
        raise ValueError(f"C-set index must be in [1, 6], got {index}")
    return 7 - index
