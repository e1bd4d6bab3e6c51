"""Acceptance suite.

Eight numbered criteria, each printing one PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to see the lines).  All checks
are exact integer comparisons.

Criterion 6 checks the paper's reduction of the sixteen period-4p
constructions to eight cases by pairing, and the classification of the
twelve odd-parity constructions at p=13.  Every one of the paper's six odd
pairs lies inside one class, but the complete witness search joins them
into four classes, not six: compositions of the preserving operations also
link the pairs, e.g. s13 = nega_shift_26(nega_decimate_11(s12)).  The
criterion re-applies every class witness through the elementwise oracle and
proves the four representatives pairwise inequivalent by a brute-force
oracle search over all (d, t); see README "Classification results".
"""

import itertools
import math
import random

from oacf import (
    AffineWitness,
    BinarySequence,
    apply_witness,
    build_system,
    classify,
    construct_in,
    decimate,
    nega_decimate,
    oacf,
    oacf_distribution,
    oacf_profile,
    pacf,
    parker_double,
    peak_oacf,
    reachable_without_negadecimation,
    oacf_equivalent,
    try_parker_split,
    verify_table,
    verify_table4,
)

import goldens
import oracle
from goldens import random_unit


def _report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"ACCEPTANCE {number} ({name}): {status}{suffix}", flush=True)


def all_sequences(n):
    for word in range(1 << n):
        yield BinarySequence(word, n)


def test_criterion_1_period10_pair():
    a = BinarySequence.from_string(goldens.PAIR10_A)
    b = BinarySequence.from_string(goldens.PAIR10_B)
    assert decimate(a, 3) == b
    assert oacf_profile(a).values == (10, 0, -2, -4, 2, 0, -2, 4, 2, 0)
    assert oacf_profile(b).values == (10, 0, -6, 0, 6, 0, -6, 0, 6, 0)
    assert oacf_distribution(a) != oacf_distribution(b)
    _report(1, "period-10 pair, decimation not preserving", True)


def test_criterion_2_period31_chain():
    s = BinarySequence.from_string(goldens.SEQ31)
    u = parker_double(s)
    assert str(u) == goldens.SEQ31_DOUBLED
    dec = decimate(u, 3)
    assert str(dec) == goldens.SEQ31_DOUBLED_DEC3
    split = try_parker_split(dec)
    assert str(split) == goldens.SEQ31_NEGADEC3
    assert nega_decimate(s, 3) == split
    assert oacf_profile(s).values == goldens.SEQ31_OACF
    assert oacf_profile(split).values == goldens.SEQ31_NEGADEC3_OACF
    assert oacf_distribution(s).entries == goldens.SEQ31_OACF_MULTISET
    assert oacf_distribution(split).entries == goldens.SEQ31_OACF_MULTISET
    _report(2, "period-31 nega-decimation chain", True)


def test_criterion_3_negative_result():
    s = BinarySequence.from_string(goldens.SEQ31)
    s_prime = BinarySequence.from_string(goldens.SEQ31_NEGADEC3)
    # exhaust the 62-element negation/nega-shift orbit independently
    bits = s.bits()
    doubled = bits + [(b + 1) % 2 for b in bits]
    orbit = set()
    for t in range(62):
        rotated = doubled[t:] + doubled[:t]
        orbit.add(tuple(rotated[:31]))
    assert len(orbit) == 62
    assert tuple(s_prime.bits()) not in orbit
    assert not reachable_without_negadecimation(s, s_prime)
    witness = oacf_equivalent(s, s_prime)
    assert witness is not None and apply_witness(witness, s) == s_prime
    _report(3, "unreachable without nega-decimation, witness exists", True)


def test_criterion_4_preservation_and_symmetries():
    rng = random.Random(2024)
    randoms = []
    for _ in range(200):
        n = rng.randrange(3, 65)
        randoms.append(BinarySequence(rng.getrandbits(n), n))

    # multiset invariance under >= 50 sampled witnesses per sequence
    for s in randoms:
        n = s.period
        base = oacf_distribution(s)
        for _ in range(50):
            w = AffineWitness(random_unit(rng, 2 * n), rng.randrange(2 * n))
            assert oacf_distribution(apply_witness(w, s)) == base

    # doubling identity and both shift symmetries, exhaustively to N = 12
    # and on the random set
    def check(s):
        n = s.period
        u = parker_double(s)
        profile = [oacf(s, t) for t in range(n)]
        pacf_u = [pacf(u, t) for t in range(2 * n)]
        for tau in range(n):
            assert pacf_u[tau] == 2 * profile[tau]
            assert pacf_u[tau + n] == -pacf_u[tau]
        for tau in range(1, n):
            assert profile[tau] == -profile[n - tau]

    for n in range(1, 13):
        for s in all_sequences(n):
            check(s)
    for s in randoms:
        check(s)
    _report(4, "witness invariance + doubling/shift symmetries", True)


def test_criterion_5_value_set_tables():
    branches = []
    failures = []
    for p in (17, 41):
        for index in range(1, 5):
            report = verify_table(index, p)
            branches.append((index, p, report.branch))
            if not report.matched:
                failures.append(report)
    for p in (5, 13, 29, 37):
        for index in range(5, 17):
            report = verify_table(index, p)
            branches.append((index, p, report.branch))
            if not report.matched:
                failures.append(report)
    assert len(branches) == 56
    assert all(branch in ("+y", "-y") for _, _, branch in branches)
    assert not failures, [vars(r) for r in failures]
    _report(5, "16 value-set rows over 6 primes", True,
            "branch recorded for each of 56 rows")


def test_criterion_6_pairing_relations_and_classification():
    report = verify_table4(17, 13)
    assert report.all_passed, [vars(r) for r in report.rows]
    directions = {r.row: r.direction for r in report.rows}
    print(f"  criterion 6 detail: 8/8 explicit relations hold; "
          f"parameter direction per row: {directions}", flush=True)

    sys17 = build_system(17)
    even = classify({f"s{i}": construct_in(sys17, i)[0] for i in range(1, 5)})
    assert [cls.members for cls in even] == [("s1", "s4"), ("s2", "s3")]
    print("  criterion 6 detail: constructions 1-4 at p=17 give exactly "
          "2 classes with no cross-row merging", flush=True)

    sys13 = build_system(13)
    labeled = {f"s{i:02d}": construct_in(sys13, i)[0] for i in range(5, 17)}
    bits = {label: s.bits() for label, s in labeled.items()}
    # the README example, composed from the elementwise operations
    assert (
        oracle.apply_witness_naive(bits["s12"], 11, 78)
        == oracle.nega_cyclic_shift_naive(
            oracle.nega_decimate_naive(bits["s12"], 11), 26
        )
        == bits["s13"]
    )

    odd = classify(labeled)
    actual = [cls.members for cls in odd]
    paper_pairs = [
        ("s05", "s08"), ("s06", "s07"), ("s09", "s12"),
        ("s10", "s11"), ("s13", "s16"), ("s14", "s15"),
    ]
    four_classes = [
        ("s05", "s08"), ("s06", "s07"),
        ("s09", "s12", "s13", "s16"), ("s10", "s11", "s14", "s15"),
    ]
    class_index = {m: i for i, members in enumerate(actual) for m in members}
    split_pairs = [
        (a, b) for a, b in paper_pairs if class_index[a] != class_index[b]
    ]

    def reproduced(cls, member):
        witness = cls.witnesses.get(member)
        return witness is not None and oracle.apply_witness_naive(
            bits[cls.representative], witness.d, witness.t
        ) == bits[member]

    unreproduced = [
        (cls.representative, member, cls.witnesses.get(member))
        for cls in odd
        for member in cls.members
        if not reproduced(cls, member)
    ]
    # s06 and s09 share one OACF multiset, so only a search separates them
    joined = [
        (a, b, witness)
        for a, b in itertools.combinations([c[0] for c in four_classes], 2)
        if (witness := oracle.oacf_equivalent_naive(bits[a], bits[b])) is not None
    ]
    passed = (
        not split_pairs and actual == four_classes
        and not unreproduced and not joined
    )
    if passed:
        detail = (f"the 6 paper pairs of constructions 5-16 at p=13 lie in "
                  f"{len(actual)} classes {actual}; every witness re-applies "
                  "through the oracle; representatives pairwise inequivalent")
    else:
        detail = (f"constructions 5-16 at p=13 give {len(actual)} classes "
                  f"{actual}; split pairs {split_pairs}; witnesses not "
                  f"reproduced {unreproduced}; joined representatives {joined}")
    _report(6, "pairing relations + classification", passed, detail)
    assert not split_pairs, f"paper pairs split across classes: {split_pairs}"
    assert actual == four_classes, f"computed {actual}"
    assert not unreproduced, f"witnesses not reproduced by the oracle: {unreproduced}"
    assert not joined, f"representatives joined by the oracle search: {joined}"


def test_criterion_7_oracle_equivalence():
    # exhaustive agreement with the elementwise definitions, N <= 10
    for n in range(1, 11):
        two_n = 2 * n
        units = [d for d in range(1, two_n, 2) if math.gcd(d, two_n) == 1]
        for s in all_sequences(n):
            bits = s.bits()
            for tau in range(n):
                assert pacf(s, tau) == oracle.pacf_naive(bits, tau)
                assert oacf(s, tau) == oracle.oacf_naive(bits, tau)
            for d in units:
                assert nega_decimate(s, d).bits() == oracle.nega_decimate_naive(
                    bits, d
                )
    # 1000 random (s, tau, d) triples, N <= 256
    rng = random.Random(777)
    for _ in range(1000):
        n = rng.randrange(1, 257)
        s = BinarySequence(rng.getrandbits(n), n)
        bits = s.bits()
        tau = rng.randrange(n)
        d = random_unit(rng, 2 * n)
        assert pacf(s, tau) == oracle.pacf_naive(bits, tau)
        assert oacf(s, tau) == oracle.oacf_naive(bits, tau)
        assert nega_decimate(s, d).bits() == oracle.nega_decimate_naive(bits, d)
    _report(7, "bit-packed kernels match elementwise oracle", True)


def test_criterion_8_peak_lower_bound():
    for n in range(3, 13):
        bound = 1 if n % 2 else 2
        for s in all_sequences(n):
            assert peak_oacf(s) >= bound
    _report(8, "peak lower bound, exhaustive N in [3, 12]", True)
