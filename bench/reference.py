"""Elementwise reference definitions used to check the program's outputs.

Everything here works on '0'/'1' strings with explicit index arithmetic and
imports nothing from the program, so a check never trusts the code it checks.
"""

import math


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))


def smallest_primitive_root(p: int) -> int:
    factors = [q for q in range(2, p) if (p - 1) % q == 0 and is_prime(q)]
    return next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in factors))


_FLIP = str.maketrans("01", "10")


def complement(s: str) -> str:
    return s.translate(_FLIP)


def doubled(s: str) -> str:
    """u = s || (s + 1)."""
    return s + complement(s)


def pacf_at(s: str, tau: int) -> int:
    """Agreements minus disagreements of s with its cyclic shift by tau."""
    shifted = s[tau:] + s[:tau]
    return len(s) - 2 * sum(x != y for x, y in zip(s, shifted))


def oacf_at(s: str, tau: int) -> int:
    """As pacf_at, but the elements that wrap past the period are complemented."""
    shifted = s[tau:] + complement(s[:tau])
    return len(s) - 2 * sum(x != y for x, y in zip(s, shifted))


def apply_at(op: str, s: str, param: int | None, i: int) -> str:
    """Element i of the CLI operation ``op`` applied to s, from its definition."""
    n = len(s)
    if op == "negate":
        return complement(s[i])
    if op == "shift":
        return s[(i + param) % n]
    if op == "negashift":
        return s[(i + param) % n] if i + param < n else complement(s[(i + param) % n])
    if op == "decimate":
        return s[param * i % n]
    if op == "negadecimate":
        k = param * i % (2 * n)
        return s[k % n] if k < n else complement(s[k % n])
    raise ValueError(f"unknown operation {op!r}")


def units(two_n: int) -> list[int]:
    return [d for d in range(1, two_n, 2) if math.gcd(d, two_n) == 1]


def apply_witness(d: int, t: int, s: str) -> str:
    """s'(i) = u(d*i + t mod 2N) with u = s || (s + 1)."""
    u = doubled(s)
    two_n = len(u)
    return "".join(u[(d * i + t) % two_n] for i in range(len(s)))


def reachable_d1(s: str, target: str) -> bool:
    """Some nega-cyclic shift of s, negated or not, equals target."""
    u = doubled(s)
    return target in u + u


def equivalent(s: str, target: str) -> bool:
    """Some witness (d, t) maps s to target: the doubled target is a rotation
    of u decimated by some unit d."""
    u = doubled(s)
    two_n = len(u)
    v_target = doubled(target)
    for d in units(two_n):
        dec = "".join(u[d * i % two_n] for i in range(two_n))
        if v_target in dec + dec:
            return True
    return False
