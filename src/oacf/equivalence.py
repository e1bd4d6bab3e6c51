"""Equivalence of binary sequences under the OACF-preserving operations.

On the doubled sequence u = s || (s + 1) of period 2N, negation is a cyclic
shift by N, a nega-cyclic shift by tau is a cyclic shift by tau, and
nega-decimation by d is a decimation by d.  Shifts and decimations of
Z_{2N} generate exactly the affine index maps i -> d*i + t, so any
composition of the three operations is one witness (d, t) acting as

    s'(i) = u(d*i + t mod 2N),  0 <= i < N,

and the witness search space d in Z*_{2N}, t in Z_{2N} is complete.
"""

import math

from .constructions import _construct_s, crt_iso
from .cyclotomy import build_system
from .sequences import (
    BinarySequence,
    _correlations,
    _gathered,
    _record,
    negate,
    nega_decimate,
    parker_double,
)

__all__ = [
    "AffineWitness",
    "EquivalenceClass",
    "Table4RowReport",
    "Table4Report",
    "TABLE4_RELATIONS",
    "apply_witness",
    "compose",
    "oacf_equivalent",
    "reachable_without_negadecimation",
    "classify",
    "verify_table4",
]


@_record(order=True)
class AffineWitness:
    """Index map i -> d*i + t on the doubled index set Z_{2N}.

    Canonical forms: negation = (1, N); nega-cyclic shift by tau = (1, tau);
    nega-decimation by d = (d, 0).
    """

    d: int
    t: int


def apply_witness(w: AffineWitness, s: BinarySequence) -> BinarySequence:
    """s'(i) = u(d*i + t mod 2N) with u = s || (s + 1)."""
    return _gathered(s, w.d, w.t, -1, "witnesses require")


def compose(first: AffineWitness, second: AffineWitness, period: int) -> AffineWitness:
    """Witness equivalent to applying ``first`` and then ``second``."""
    two_n = 2 * period
    return AffineWitness(
        first.d * second.d % two_n, (first.d * second.t + first.t) % two_n
    )


def _check_periods(s: BinarySequence, s_prime: BinarySequence) -> None:
    if s.period != s_prime.period:
        raise ValueError(
            f"periods differ: {s.period} != {s_prime.period}"
        )


def _key(profile: list[int]) -> tuple[int, ...]:
    """Sorted |OACF(tau)| for 1 <= tau < N/2: equal for every sequence in one
    class, since a witness permutes Z_{2N} and OACF(tau + N) = -OACF(tau).
    Keys are compared at one N only, where OACF(N - tau) = -OACF(tau),
    OACF(0) = N and, for even N, OACF(N/2) = 0 give the other half, so this
    half decides the sorted |OACF| values over all of [0, N)."""
    return tuple(sorted(map(abs, profile[1 : (len(profile) + 1) // 2])))


def oacf_equivalent(s: BinarySequence, s_prime: BinarySequence) -> AffineWitness | None:
    """Lexicographically smallest witness (d, t) mapping s to s_prime, or None.

    The search is complete over d in Z*_{2N}, t in Z_{2N}, and pruned by an
    invariant of the OACF continued to Z_{2N}, where OACF(tau + N) =
    -OACF(tau): a witness (d, t) forces OACF_{s'}(tau) = OACF_s(d*tau mod 2N)
    whatever t is.  Unequal multisets of |OACF| values give None at once,
    and a unit d is rejected at the first shift tau < N that breaks the
    invariant; those suffice, since d*N = N (mod 2N) for odd d.  For each d
    left, (d, t) maps s to s' iff nega-decimating s' by d^-1 mod 2N gives
    the window at t of u || u, u = parker_double(s): the nega-cyclic shift
    of s by t mod N, negated when t >= N.  Both satisfy x(j + N) = x(j) + 1,
    so N characters decide the match; its first offset is the smallest t.
    """
    _check_periods(s, s_prime)
    n, two_n = s.period, 2 * s.period
    pu, pv = _correlations(s, -1), _correlations(s_prime, -1)
    if _key(pu) != _key(pv):
        return None
    pu += [-value for value in pu]  # OACF_s on all of Z_{2N}
    haystack = str(parker_double(s)) * 2
    for d in range(1, two_n, 2):
        if math.gcd(d, two_n) != 1:
            continue
        for tau in range(1, n):
            if pv[tau] != pu[d * tau % two_n]:
                break
        else:
            t = haystack.find(str(nega_decimate(s_prime, pow(d, -1, two_n))))
            if t >= 0:
                return AffineWitness(d, t)
    return None


def reachable_without_negadecimation(s: BinarySequence, s_prime: BinarySequence) -> bool:
    """True iff some witness with d = 1 maps s to s_prime, i.e. s_prime lies
    in the orbit of s under negation and nega-cyclic shifts alone: the
    d = 1 case of ``oacf_equivalent``'s window test on parker_double(s)."""
    _check_periods(s, s_prime)
    return str(s_prime) in str(parker_double(s)) * 2


@_record()
class EquivalenceClass:
    """Sequences mutually reachable through the OACF-preserving operations;
    each member carries a witness from the representative."""

    representative: str
    members: tuple[str, ...]
    witnesses: dict[str, AffineWitness]


def classify(labeled) -> list[EquivalenceClass]:
    """Partition labeled sequences under OACF equivalence.

    ``labeled`` maps label -> BinarySequence; all periods must agree.  The
    representative of each class is its lexicographically smallest label.
    """
    items = sorted(dict(labeled).items())
    if not items:
        return []
    period = items[0][1].period
    for label, seq in items:
        if seq.period != period:
            raise ValueError(
                f"mixed periods: {label!r} has period {seq.period}, expected {period}"
            )
    # a sequence is searched against the representatives of its own key
    # only, in the order they were made; the classes are built at the end
    groups: dict[tuple[int, ...], list[tuple[BinarySequence, dict[str, AffineWitness]]]] = {}
    found: dict[str, dict[str, AffineWitness]] = {}
    for label, seq in items:
        reps = groups.setdefault(_key(_correlations(seq, -1)), [])
        for rep_seq, witnesses in reps:
            witness = oacf_equivalent(rep_seq, seq)
            if witness is not None:
                witnesses[label] = witness
                break
        else:
            found[label] = witnesses = {label: AffineWitness(1, 0)}
            reps.append((seq, witnesses))
    return [EquivalenceClass(rep, tuple(ws), ws) for rep, ws in found.items()]


# (row, source index, target index, printed alpha exponent, negate source first)
TABLE4_RELATIONS = (
    (1, 1, 4, 3, True),
    (2, 2, 3, 3, True),
    (3, 5, 8, 3, True),
    (4, 6, 7, 3, True),
    (5, 9, 12, 3, False),
    (6, 10, 11, 1, False),
    (7, 13, 16, 1, False),
    (8, 14, 15, 1, False),
)


@_record()
class Table4RowReport:
    """Outcome of one explicit pairing relation.

    The printed decimation parameter is d = eta(1, alpha^exponent).  It is
    checked both as-is and inverted mod 2N (the two readings of which way a
    decimation moves a support set); ``direction`` records what matched.
    """

    row: int
    p: int
    source: str
    target: str
    negate_first: bool
    exponent: int
    d_printed: int
    printed_match: bool
    d_inverse: int
    inverse_match: bool
    witness: AffineWitness | None

    @property
    def direction(self) -> str | None:
        if self.printed_match:
            return "printed"
        if self.inverse_match:
            return "inverse"
        return None

    @property
    def passed(self) -> bool:
        return self.printed_match or self.inverse_match


@_record()
class Table4Report:
    p_even_f: int
    p_odd_f: int
    rows: tuple[Table4RowReport, ...]

    @property
    def all_passed(self) -> bool:
        return all(row.passed for row in self.rows)


def verify_table4(p_even_f: int, p_odd_f: int) -> Table4Report:
    """Check the eight explicit pairing relations among the sixteen
    constructions, plus a generic witness search per pair.

    Rows 1-2 run at ``p_even_f`` (constructions 1-4 need f even), rows 3-8
    at ``p_odd_f``, each with the smallest primitive root of its prime; a
    prime of the other f parity raises the construction's
    ConstructionInapplicableError.
    """
    systems = {False: build_system(p_even_f), True: build_system(p_odd_f)}
    # all sixteen are built first, so that a prime of the wrong f parity
    # raises before any check or search
    built = {i: _construct_s(systems[i > 4], i) for i in range(1, 17)}
    rows = []
    for row, i_src, i_tgt, exponent, negate_first in TABLE4_RELATIONS:
        system, source, target = systems[i_src > 4], built[i_src], built[i_tgt]
        two_n = 2 * source.period
        d_printed = crt_iso(system.p)[0](1, pow(system.alpha, exponent, system.p))
        d_inverse = pow(d_printed, -1, two_n)
        base = negate(source) if negate_first else source
        rows.append(
            Table4RowReport(
                row=row,
                p=system.p,
                source=f"s{i_src}",
                target=f"s{i_tgt}",
                negate_first=negate_first,
                exponent=exponent,
                d_printed=d_printed,
                printed_match=nega_decimate(base, d_printed) == target,
                d_inverse=d_inverse,
                inverse_match=nega_decimate(base, d_inverse) == target,
                witness=oacf_equivalent(source, target),
            )
        )
    return Table4Report(p_even_f, p_odd_f, tuple(rows))
