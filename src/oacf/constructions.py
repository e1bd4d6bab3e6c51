"""The sixteen period-4p sequence families built from quartic cyclotomy.

Each family is described by a subset G' of {0,1,2,3} and a quadruple gamma
of C-set indices.  A support set inside Z_8 x Z_p is expanded from (G',
gamma) by complement rules, mapped through the CRT isomorphism to Z_{8p},
and read off as a characteristic sequence u of period 8p.

``construct_in`` reads that support set through one code per residue z,
5*(z mod 8) + k with k the class of z mod p (4 for 0), and one 256-byte
table per construction; ``build_support`` in ``tests/oracle.py`` states it
literally.  Every table gives the cells (n, k) and (n + 4, k) of z and z + 4p
opposite bits, so u = s || (s + 1) at every prime, s the first 4p codes.

``verify_table`` checks the distinct OACF values of s, read from one shift
per cyclotomic orbit, against the family's symbolic value set instantiated
with the quartic decomposition (x, y), accepting a uniform sign flip of y
(the tables fix no sign convention).
"""

from .cyclotomy import CSET_PAIRS, CyclotomicSystem, build_system, complement_cset_index
from .sequences import BinarySequence, _correlations_at, _from_text, _record, parker_double

__all__ = [
    "ConstructionSpec",
    "ConstructionInapplicableError",
    "VerificationReport",
    "CONSTRUCTIONS",
    "construction_spec",
    "is_applicable",
    "crt_iso",
    "expand_g",
    "expand_gamma_indices",
    "construct",
    "construct_in",
    "verify_table",
]


class ConstructionInapplicableError(ValueError):
    """The requested construction needs the other parity of f = (p-1)/4."""


# Symbolic value terms (a, b, c) standing for a + b*x + c*y; every term is
# listed in a value set together with its negative.
_V0 = (0, 0, 0)
_V2 = (2, 0, 0)
_V4 = (4, 0, 0)
_2X_4Y = (0, 2, 4)
_2X_M4Y = (0, 2, -4)
_2Y = (0, 0, 2)
_4Y = (0, 0, 4)
_4Y_P8 = (8, 0, 4)
_4Y_M8 = (-8, 0, 4)


@_record()
class ConstructionSpec:
    index: int
    g_prime: frozenset[int]
    gamma: tuple[int, int, int, int]  # C-set indices for A0..A3
    value_terms: tuple[tuple[int, int, int], ...]
    f_parity: str  # "even" or "odd"


def _spec(index, g_prime, gamma, terms, parity):
    return ConstructionSpec(index, frozenset(g_prime), gamma, terms, parity)


CONSTRUCTIONS: tuple[ConstructionSpec, ...] = (
    _spec(1, {2}, (3, 4, 1, 1), (_V0, _V2, _V4, _2X_4Y), "even"),
    _spec(2, {0, 1, 2}, (4, 3, 1, 1), (_V0, _V2, _V4, _2X_M4Y), "even"),
    _spec(3, {3}, (6, 1, 4, 4), (_V0, _V2, _V4, _2X_M4Y), "even"),
    _spec(4, {0, 1, 3}, (1, 6, 4, 4), (_V0, _V2, _V4, _2X_4Y), "even"),
    _spec(5, {0}, (3, 4, 1, 1), (_V0, _V2, _V4, _2X_4Y), "odd"),
    _spec(6, {1}, (4, 3, 1, 1), (_V0, _V2, _V4, _2X_M4Y), "odd"),
    _spec(7, {0, 2, 3}, (6, 1, 4, 4), (_V0, _V2, _V4, _2X_M4Y), "odd"),
    _spec(8, {1, 2, 3}, (1, 6, 4, 4), (_V0, _V2, _V4, _2X_4Y), "odd"),
    _spec(9, {0}, (5, 2, 1, 1), (_V0, _V2, _2Y, _4Y, _4Y_P8), "odd"),
    _spec(10, {0}, (2, 5, 1, 1), (_V0, _V2, _2Y, _4Y, _4Y_M8), "odd"),
    _spec(11, {0}, (5, 2, 4, 4), (_V0, _V2, _2Y, _4Y, _4Y_M8), "odd"),
    _spec(12, {0}, (2, 5, 4, 4), (_V0, _V2, _2Y, _4Y, _4Y_P8), "odd"),
    _spec(13, {0, 3}, (1, 2, 2, 1), (_V0, _V2, _2Y, _4Y, _4Y_P8), "odd"),
    _spec(14, {0, 3}, (1, 5, 5, 1), (_V0, _V2, _2Y, _4Y, _4Y_M8), "odd"),
    _spec(15, {0, 3}, (4, 2, 2, 4), (_V0, _V2, _2Y, _4Y, _4Y_M8), "odd"),
    _spec(16, {0, 3}, (4, 5, 5, 4), (_V0, _V2, _2Y, _4Y, _4Y_P8), "odd"),
)


def construction_spec(index: int) -> ConstructionSpec:
    if not 1 <= index <= 16:
        raise ValueError(f"construction index must be in [1, 16], got {index}")
    return CONSTRUCTIONS[index - 1]


def is_applicable(index: int, p: int) -> bool:
    """True iff the parity of f = (p-1)/4 matches the construction's row."""
    return ((p - 1) // 4 % 2 == 0) == (construction_spec(index).f_parity == "even")


def crt_iso(p: int):
    """The bijection pair (eta, phi) between Z_8 x Z_p and Z_{8p}.

    phi(z) = (z mod 8, z mod p); eta is its inverse by CRT.
    """
    if p < 3 or p % 2 == 0:
        raise ValueError(f"p must be an odd prime, got {p}")
    m = 8 * p
    inv_p_mod8 = pow(p, -1, 8)
    inv_8_modp = pow(8, -1, p)

    def eta(n: int, a: int) -> int:
        return (n * p * inv_p_mod8 + a * 8 * inv_8_modp) % m

    def phi(z: int) -> tuple[int, int]:
        return z % 8, z % p

    return eta, phi


def expand_g(g_prime) -> frozenset[int]:
    """G' in {0..3} grows to G in Z_8: j in G' stays, j not in G' joins as j+4."""
    g_prime = frozenset(g_prime)
    if not g_prime <= {0, 1, 2, 3}:
        raise ValueError(f"G' must be a subset of {{0,1,2,3}}, got {sorted(g_prime)}")
    return g_prime | frozenset(j + 4 for j in {0, 1, 2, 3} - g_prime)


def expand_gamma_indices(gamma) -> tuple[int, ...]:
    """C-set indices for A0..A7; A_(n+4) is the complementary C-set of A_n."""
    gamma = tuple(gamma)
    if len(gamma) != 4:
        raise ValueError("gamma must list four C-set indices")
    return gamma + tuple(complement_cset_index(i) for i in gamma)


def _check_parity(spec: ConstructionSpec, system: CyclotomicSystem) -> None:
    if not is_applicable(spec.index, system.p):
        raise ConstructionInapplicableError(
            f"construction {spec.index} requires f {spec.f_parity} (p={system.p} has f={system.f})"
        )


def _code_table(spec: ConstructionSpec) -> bytes:
    # code 5n + k reads "1" iff (n, D_k) lies in the support; k = 4 stands for (n, 0)
    table = bytearray(b"0") * 256
    for n in expand_g(spec.g_prime):
        table[5 * n + 4] = 49  # ord("1")
    for n, i in enumerate(expand_gamma_indices(spec.gamma)):
        for k in CSET_PAIRS[i]:
            table[5 * n + k] = 49
    return bytes(table)


_CODE_TABLES = tuple(_code_table(spec) for spec in CONSTRUCTIONS)


def construct_in(system: CyclotomicSystem, index: int) -> tuple[BinarySequence, BinarySequence]:
    """(s, u) for construction ``index`` over an already-built system."""
    _check_parity(construction_spec(index), system)
    p = system.p
    cls = bytearray([4]) * p
    for k, members in enumerate(system.classes):
        for a in members:
            cls[a] = k
    # byte z < 4p is 5*(z mod 8) + cls[z mod p] <= 39, so the two addends never carry
    residues = (bytes(range(0, 40, 5)) * p)[: 4 * p]
    codes = int.from_bytes(residues, "little") + int.from_bytes(cls * 4, "little")
    s = _from_text(codes.to_bytes(4 * p, "little").translate(_CODE_TABLES[index - 1]))
    return s, parker_double(s)


def construct(index: int, p: int, alpha: int | None = None) -> tuple[BinarySequence, BinarySequence]:
    """Build construction ``index`` at prime p: s of period 4p and its
    doubled characteristic sequence u of period 8p."""
    return construct_in(build_system(p, alpha), index)


@_record()
class VerificationReport:
    """Distinct-OACF-value check of one construction at one prime.

    ``branch`` records which sign of y matched ("+y", "-y", or None);
    ``collapsed`` flags that distinct symbolic terms coincided numerically.
    """

    index: int
    p: int
    x: int
    y: int
    f: int
    alpha: int
    matched: bool
    branch: str | None
    computed: tuple[int, ...]
    expected: tuple[int, ...]
    collapsed: bool


def _instantiate(terms, x: int, y: int) -> tuple[int, ...]:
    values = set()
    for a, b, c in terms:
        v = a + b * x + c * y
        values.add(v)
        values.add(-v)
    return tuple(sorted(values))


def verify_table(index: int, p: int, alpha: int | None = None) -> VerificationReport:
    """Compare the distinct OACF values of construction ``index`` at p with
    the row's symbolic value set, under either sign of y.

    ``computed`` is read from one shift per cyclotomic orbit, 19 in all.
    Multiplication by (1, alpha^4) maps each cell (n, {0}) and (n, D_k) of
    Z_8 x Z_p onto itself, so every code table, at every prime, gives an s
    fixed by the nega-decimation d = eta(1, alpha^4) (tier-1 checks this
    identity for every construction).  The OACF of s, extended to Z_8p by
    OACF(tau + 4p) = -OACF(tau), is then constant on every orbit
    tau -> d*tau.  The shifts eta(k, a) != 0 for k in {0, 1, 2, 3} and a in
    {0, 1, alpha, alpha^2, alpha^3} meet every other orbit, or its move by
    4p, which negates the value; so their values, closed under negation,
    are the values at every tau in [1, 4p).
    """
    system = build_system(p, alpha)
    spec = construction_spec(index)
    s, _ = construct_in(system, index)
    eta, _ = crt_iso(p)
    a = system.alpha
    n = s.period
    reps = (0, 1, a, a * a % p, pow(a, 3, p))
    shifts = {eta(k, r) % n for k in range(4) for r in reps} - {0}
    values = set(_correlations_at(s, -1, shifts))
    computed = tuple(sorted(values | {-v for v in values}))
    plus = _instantiate(spec.value_terms, system.x, system.y)
    minus = _instantiate(spec.value_terms, system.x, -system.y)
    full_size = 2 * len(spec.value_terms) - 1  # 0 contributes one value
    if computed == plus:
        matched, branch, expected = True, "+y", plus
    elif computed == minus:
        matched, branch, expected = True, "-y", minus
    else:
        matched, branch, expected = False, None, plus
    return VerificationReport(
        index=index,
        p=p,
        x=system.x,
        y=system.y,
        f=system.f,
        alpha=system.alpha,
        matched=matched,
        branch=branch,
        computed=computed,
        expected=expected,
        collapsed=len(expected) < full_size,
    )
