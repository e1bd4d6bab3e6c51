import json
import math
import random
import re

import pytest

from oacf import (
    AffineWitness,
    BinarySequence,
    ConstructionInapplicableError,
    NotCoprimeError,
    TABLE4_RELATIONS,
    apply_witness,
    build_system,
    classify,
    compose,
    construct_in,
    is_applicable,
    is_odd_optimal,
    nega_cyclic_shift,
    nega_decimate,
    negate,
    oacf_distribution,
    oacf_equivalent,
    pacf,
    parker_double,
    reachable_without_negadecimation,
    try_parker_split,
    verify_table4,
)
import oacf.equivalence
from oacf.cli import main
from oacf.constructions import _CODE_TABLES, crt_iso
from oacf.equivalence import _key
from oacf.sequences import _correlations

import goldens
import oracle
from goldens import random_sequence, random_unit, seq


class TestApplyWitness:
    def test_identity(self):
        s = seq("0110100")
        assert apply_witness(AffineWitness(1, 0), s) == s

    def test_negation_form(self):
        s = seq("01")
        assert apply_witness(AffineWitness(1, 2), s) == seq("10")
        rng = random.Random(30)
        for _ in range(15):
            s = random_sequence(rng, rng.randrange(1, 40))
            assert apply_witness(AffineWitness(1, s.period), s) == negate(s)

    def test_nega_shift_form(self):
        rng = random.Random(31)
        for _ in range(15):
            n = rng.randrange(2, 40)
            s = random_sequence(rng, n)
            tau = rng.randrange(n)
            assert apply_witness(AffineWitness(1, tau), s) == nega_cyclic_shift(s, tau)

    def test_nega_decimation_form(self):
        rng = random.Random(32)
        for _ in range(15):
            n = rng.randrange(1, 40)
            s = random_sequence(rng, n)
            d = random_unit(rng, 2 * n)
            assert apply_witness(AffineWitness(d, 0), s) == nega_decimate(s, d)

    def test_period31_witness(self):
        assert apply_witness(AffineWitness(3, 0), seq(goldens.SEQ31)) == seq(
            goldens.SEQ31_NEGADEC3
        )

    def test_not_coprime(self):
        message = "gcd(d=2, 2N=6) = 2; witnesses require gcd(d, 2N) = 1"
        with pytest.raises(NotCoprimeError, match=f"^{re.escape(message)}$"):
            apply_witness(AffineWitness(2, 0), seq("010"))

    def test_composition_law(self):
        rng = random.Random(33)
        for _ in range(25):
            n = rng.randrange(1, 32)
            s = random_sequence(rng, n)
            w1 = AffineWitness(random_unit(rng, 2 * n), rng.randrange(2 * n))
            w2 = AffineWitness(random_unit(rng, 2 * n), rng.randrange(2 * n))
            step_by_step = apply_witness(w2, apply_witness(w1, s))
            assert apply_witness(compose(w1, w2, n), s) == step_by_step

    def test_preserves_distribution(self):
        rng = random.Random(34)
        for _ in range(30):
            n = rng.randrange(1, 257)
            s = random_sequence(rng, n)
            w = AffineWitness(random_unit(rng, 2 * n), rng.randrange(2 * n))
            assert oacf_distribution(apply_witness(w, s)) == oacf_distribution(s)

    def test_chain_of_paper_operations(self):
        # with tau = d^-1 * t mod 2N, (d, t) is nega-decimation by d, then a
        # nega-cyclic shift by tau mod N, then a negation when tau >= N
        rng = random.Random(36)
        for _ in range(300):
            n = rng.randrange(1, 41)
            s = random_sequence(rng, n)
            d, t = random_unit(rng, 2 * n), rng.randrange(2 * n)
            tau = pow(d, -1, 2 * n) * t % (2 * n)
            chain = nega_cyclic_shift(nega_decimate(s, d), tau % n)
            assert apply_witness(AffineWitness(d, t), s) == (negate(chain) if tau >= n else chain)


class TestWitnessSearch:
    def test_self_is_identity(self):
        s = seq("011010")
        assert oacf_equivalent(s, s) == AffineWitness(1, 0)

    def test_period31_pair(self):
        s = seq(goldens.SEQ31)
        s_prime = seq(goldens.SEQ31_NEGADEC3)
        witness = oacf_equivalent(s, s_prime)
        assert witness is not None
        assert apply_witness(witness, s) == s_prime
        assert witness <= AffineWitness(3, 0)  # lexicographically smallest wins

    def test_period10_pair_not_equivalent(self):
        assert oacf_equivalent(seq(goldens.PAIR10_A), seq(goldens.PAIR10_B)) is None

    def test_period_mismatch(self):
        with pytest.raises(ValueError):
            oacf_equivalent(seq("01"), seq("011"))
        with pytest.raises(ValueError):
            reachable_without_negadecimation(seq("01"), seq("011"))

    def test_soundness(self):
        rng = random.Random(35)
        for _ in range(10):
            n = rng.randrange(2, 24)
            s = random_sequence(rng, n)
            w = AffineWitness(random_unit(rng, 2 * n), rng.randrange(2 * n))
            target = apply_witness(w, s)
            found = oacf_equivalent(s, target)
            assert found is not None
            assert apply_witness(found, s) == target

    def test_completeness_on_random_compositions(self):
        # anything built from the three operations is found by the search
        rng = random.Random(36)
        for _ in range(12):
            n = rng.randrange(2, 20)
            s = random_sequence(rng, n)
            target = s
            for _ in range(rng.randrange(1, 6)):
                op = rng.randrange(3)
                if op == 0:
                    target = negate(target)
                elif op == 1:
                    target = nega_cyclic_shift(target, rng.randrange(n))
                else:
                    target = nega_decimate(target, random_unit(rng, 2 * n))
            witness = oacf_equivalent(s, target)
            assert witness is not None
            assert apply_witness(witness, s) == target

    def test_negative_control_random(self):
        # sequences with different multisets never get a witness
        rng = random.Random(37)
        checked = 0
        while checked < 8:
            n = rng.randrange(3, 12)
            a, b = random_sequence(rng, n), random_sequence(rng, n)
            if oacf_distribution(a) == oacf_distribution(b):
                continue
            assert oacf_equivalent(a, b) is None
            checked += 1


def as_pair(witness):
    return None if witness is None else (witness.d, witness.t)


def parker_family(p):
    system = build_system(p)
    return {
        f"s{i:02d}": construct_in(system, i)[0]
        for i in range(1, 17)
        if is_applicable(i, p)
    }


class TestPrunedSearch:
    """The pruned search against the former unpruned one, kept in
    ``oracle.oacf_equivalent_reference``."""

    def test_matches_reference_on_every_pair_up_to_7(self):
        for n in range(1, 8):
            seqs = [BinarySequence(word, n) for word in range(1 << n)]
            for a in seqs:
                for b in seqs:
                    assert as_pair(oacf_equivalent(a, b)) == oracle.oacf_equivalent_reference(a, b)

    def test_matches_elementwise_oracle_up_to_5(self):
        for n in range(1, 6):
            seqs = [BinarySequence(word, n) for word in range(1 << n)]
            for a in seqs:
                for b in seqs:
                    assert as_pair(oacf_equivalent(a, b)) == oracle.oacf_equivalent_naive(
                        a.bits(), b.bits()
                    )

    @pytest.mark.parametrize("p", [13, 29, 37, 53])
    def test_seeded_hits_at_4p(self, p):
        rng = random.Random(p)
        n = 4 * p
        family = parker_family(p)
        sources = [random_sequence(rng, n), family["s06"], family["s09"]]
        for s in sources:
            w = AffineWitness(random_unit(rng, 2 * n), rng.randrange(2 * n))
            target = apply_witness(w, s)
            found = oacf_equivalent(s, target)
            assert as_pair(found) == oracle.oacf_equivalent_reference(s, target)
            assert found <= w

    @pytest.mark.parametrize("p", [13, 29, 37, 53])
    def test_seeded_misses_at_4p(self, p):
        # at p = 13, s06 and s09 share their sorted profile and twelve units
        # d pass the per-d check, so only the substring search rejects them;
        # the other pairs, and s06/s09 at larger p, fail the multiset check
        rng = random.Random(p)
        n = 4 * p
        family = parker_family(p)
        pairs = [
            (family["s06"], family["s09"]),
            (family["s05"], family["s10"]),
            (random_sequence(rng, n), random_sequence(rng, n)),
        ]
        for a, b in pairs:
            assert oacf_equivalent(a, b) is None
            assert oracle.oacf_equivalent_reference(a, b) is None

    def test_unit_screen_keeps_the_first_middle_and_last_unit(self):
        # list.index screens the units at tau = 1; a hit whose witness has
        # d = 1, the middle unit or d = 2N - 1 checks its first, middle and
        # last candidate, and N = 1 its single unit
        rng = random.Random(53)
        for n in range(1, 65):
            units = [d for d in range(1, 2 * n, 2) if math.gcd(d, 2 * n) == 1]
            for d in (1, units[len(units) // 2], 2 * n - 1):
                s = random_sequence(rng, n)
                target = apply_witness(AffineWitness(d, rng.randrange(2 * n)), s)
                found = as_pair(oacf_equivalent(s, target))
                assert found == oracle.oacf_equivalent_reference(s, target), (n, d)
                assert found[0] <= d

    @pytest.mark.parametrize("p", [13, 29])
    def test_unit_screen_on_the_constructions_5_to_16(self, p):
        # few distinct OACF values, so most units pass the screen
        family = [s for label, s in sorted(parker_family(p).items()) if label >= "s05"]
        assert len(family) == 12
        for a in family:
            for b in family:
                assert as_pair(oacf_equivalent(a, b)) == oracle.oacf_equivalent_reference(a, b)

    def test_profile_lemma(self):
        # a witness (d, t) forces PACF_v(tau) = PACF_u(d*tau mod 2N) for
        # the doubled sequences u of s and v of its image, whatever t is
        rng = random.Random(41)
        for _ in range(20):
            n = rng.randrange(1, 40)
            s = random_sequence(rng, n)
            d, t = random_unit(rng, 2 * n), rng.randrange(2 * n)
            u = parker_double(s).bits()
            v = parker_double(apply_witness(AffineWitness(d, t), s)).bits()
            for tau in range(2 * n):
                assert oracle.pacf_naive(v, tau) == oracle.pacf_naive(u, d * tau % (2 * n))

    def test_key_separates_like_the_doubled_pacf_multiset(self):
        # the key, N sorted |OACF| values, is equal exactly when the
        # multisets of PACF values of u = s || (s + 1) over Z_{2N} are
        def doubled_multiset(s):
            u = parker_double(s).bits()
            return sorted(oracle.pacf_naive(u, tau) for tau in range(len(u)))

        def same_key(a, b):
            equal = _key(_correlations(a, -1)) == _key(_correlations(b, -1))
            assert equal == (doubled_multiset(a) == doubled_multiset(b))
            return equal

        rng = random.Random(43)
        random_pairs = []
        for _ in range(200):
            n = rng.randrange(1, 9)
            random_pairs.append((random_sequence(rng, n), random_sequence(rng, n)))
        assert {same_key(a, b) for a, b in random_pairs} == {True, False}
        for _ in range(40):
            n = rng.randrange(1, 65)
            s = random_sequence(rng, n)
            w = AffineWitness(random_unit(rng, 2 * n), rng.randrange(2 * n))
            assert same_key(s, apply_witness(w, s))
        family = parker_family(13)
        for a in family.values():
            for b in family.values():
                same_key(a, b)
        # a shared key does not make a class: s06 and s09 lie apart
        assert same_key(family["s06"], family["s09"])
        assert oacf_equivalent(family["s06"], family["s09"]) is None

    def test_half_key_agrees_with_the_full_sorted_key(self):
        # the key reads |OACF| on 1 <= tau < N/2 only; at one N it must be
        # equal exactly when the sorted |OACF| values over all of [0, N) are
        def full_key(profile):
            return sorted(map(abs, profile))

        rng = random.Random(47)
        outcomes = set()
        for n in range(1, 81):
            pairs = [(random_sequence(rng, n), random_sequence(rng, n)) for _ in range(12)]
            for _ in range(4):
                s = random_sequence(rng, n)
                w = AffineWitness(random_unit(rng, 2 * n), rng.randrange(2 * n))
                pairs.append((s, apply_witness(w, s)))
            for a, b in pairs:
                pa, pb = _correlations(a, -1), _correlations(b, -1)
                equal = _key(pa) == _key(pb)
                assert equal == (full_key(pa) == full_key(pb)), (a, b)
                outcomes.add((n > 8, equal))
        assert outcomes == {(False, True), (False, False), (True, True), (True, False)}

    def test_smallest_t_among_several_matches(self):
        # three rotations match for d = 5, at t = 11, 3, 19 in rotation
        # order; the contract asks for the smallest t
        s = seq("000011110000")
        target = apply_witness(AffineWitness(19, 0), s)
        assert target == seq("001011010010")
        matches = [
            t for t in range(24)
            if oracle.apply_witness_naive(s.bits(), 5, t) == target.bits()
        ]
        assert matches == [3, 11, 19]
        assert oacf_equivalent(s, target) == AffineWitness(5, 3)
        assert oracle.oacf_equivalent_reference(s, target) == (5, 3)

    @pytest.mark.parametrize("p", [13, 29, 37])
    def test_classify_matches_reference_loop(self, p):
        labeled = parker_family(p)
        expected: list[tuple[str, list[tuple[str, tuple[int, int]]]]] = []
        for label, s in sorted(labeled.items()):
            for rep, members in expected:
                witness = oracle.oacf_equivalent_reference(labeled[rep], s)
                if witness is not None:
                    members.append((label, witness))
                    break
            else:
                expected.append((label, [(label, (1, 0))]))
        actual = [
            (cls.representative, [(m, as_pair(cls.witnesses[m])) for m in cls.members])
            for cls in classify(labeled)
        ]
        assert actual == expected


class TestShiftNegationOrbit:
    def test_period31_pair_unreachable(self):
        assert not reachable_without_negadecimation(
            seq(goldens.SEQ31), seq(goldens.SEQ31_NEGADEC3)
        )

    def test_negation_reachable(self):
        rng = random.Random(38)
        for _ in range(10):
            s = random_sequence(rng, rng.randrange(1, 40))
            assert reachable_without_negadecimation(s, negate(s))

    def test_matches_d1_brute_force(self):
        # every pair with N <= 6, then 60 seeded pairs up to N = 64
        pairs = [
            (BinarySequence(a, n), BinarySequence(b, n))
            for n in range(1, 7)
            for a in range(1 << n)
            for b in range(1 << n)
        ]
        rng = random.Random(42)
        for _ in range(60):
            n = rng.randrange(1, 65)
            s = random_sequence(rng, n)
            if rng.random() < 0.5:
                target = apply_witness(AffineWitness(1, rng.randrange(2 * n)), s)
            else:
                target = random_sequence(rng, n)
            pairs.append((s, target))
        for s, target in pairs:
            n = s.period
            expected = any(
                oracle.apply_witness_naive(s.bits(), 1, t) == target.bits()
                for t in range(2 * n)
            )
            assert reachable_without_negadecimation(s, target) == expected

    def test_nega_shift_reachable(self):
        rng = random.Random(39)
        for _ in range(10):
            n = rng.randrange(6, 40)
            s = random_sequence(rng, n)
            assert reachable_without_negadecimation(s, nega_cyclic_shift(s, 5))


class TestSplitHalvesShareDistribution:
    def test_equal_pacf_multisets_give_equal_oacf_multisets(self):
        # doubled-form pairs with equal PACF multisets split into halves
        # with equal OACF multisets
        rng = random.Random(40)
        for _ in range(10):
            n = rng.randrange(2, 48)
            s = random_sequence(rng, n)
            w = AffineWitness(random_unit(rng, 2 * n), rng.randrange(2 * n))
            s_prime = apply_witness(w, s)
            u, u_prime = parker_double(s), parker_double(s_prime)
            pacf_u = sorted(pacf(u, t) for t in range(2 * n))
            pacf_u_prime = sorted(pacf(u_prime, t) for t in range(2 * n))
            assert pacf_u == pacf_u_prime
            assert oacf_distribution(try_parker_split(u)) == oacf_distribution(
                try_parker_split(u_prime)
            )


class TestClassify:
    def test_singleton(self):
        classes = classify({"only": seq("0110")})
        assert len(classes) == 1
        assert classes[0].representative == "only"
        assert classes[0].members == ("only",)
        assert classify({}) == []

    def test_witnesses_reproduce_members(self):
        sys13 = build_system(13)
        labeled = {f"s{i:02d}": construct_in(sys13, i)[0] for i in range(9, 13)}
        for cls in classify(labeled):
            rep = labeled[cls.representative]
            for member in cls.members:
                assert apply_witness(cls.witnesses[member], rep) == labeled[member]

    def test_even_f_family_two_classes(self):
        sys17 = build_system(17)
        labeled = {f"s{i}": construct_in(sys17, i)[0] for i in range(1, 5)}
        classes = classify(labeled)
        assert [cls.members for cls in classes] == [("s1", "s4"), ("s2", "s3")]

    def test_odd_f_family_four_classes(self):
        # the exhaustive search merges the four value-template quadruples:
        # witnesses with Z8-multiplier 3 pair rows 9/12 with 13/16 and
        # rows 10/11 with 14/15 (verified bit-exactly by the witnesses)
        sys13 = build_system(13)
        labeled = {f"s{i:02d}": construct_in(sys13, i)[0] for i in range(5, 17)}
        classes = classify(labeled)
        assert [cls.members for cls in classes] == [
            ("s05", "s08"),
            ("s06", "s07"),
            ("s09", "s12", "s13", "s16"),
            ("s10", "s11", "s14", "s15"),
        ]

    @pytest.mark.parametrize("p, searches", [(13, 10), (29, 8), (37, 8)])
    def test_search_count_of_parker_family(self, p, searches, monkeypatch, capsys):
        # classify searches only same-key representatives, through the
        # module's public oacf_equivalent
        calls = []
        search = oacf.equivalence.oacf_equivalent

        def counting(s, s_prime):
            calls.append((s, s_prime))
            return search(s, s_prime)

        monkeypatch.setattr(oacf.equivalence, "oacf_equivalent", counting)
        assert main(["classify", "--parker", str(p)]) == 0
        capsys.readouterr()
        assert len(calls) == searches

    def test_class_count_matches_burnside(self):
        counts = [oracle.orbit_count(n) for n in range(1, 13)]
        assert counts == [1, 1, 2, 1, 3, 4, 5, 3, 11, 13, 15, 31]
        for n, count in enumerate(counts, start=1):
            labeled = {f"{w:0{n}b}": BinarySequence(w, n) for w in range(1 << n)}
            assert len(classify(labeled)) == count

    def test_census_of_odd_optimal_classes(self):
        # the peak |OACF| is a class invariant, so the representative decides
        # its class; N = 2 has none, its peak 0 being below the bound 2
        census = {}
        for n in range(2, 12):
            labeled = {f"{w:0{n}b}": BinarySequence(w, n) for w in range(1 << n)}
            census[n] = 0
            for cls in classify(labeled):
                optimal = is_odd_optimal(labeled[cls.representative])
                assert {is_odd_optimal(labeled[m]) for m in cls.members} == {optimal}
                census[n] += optimal
        assert list(census.values()) == [0, 1, 1, 1, 2, 1, 1, 0, 3, 1]

    def test_mixed_periods_rejected(self):
        with pytest.raises(ValueError):
            classify({"a": seq("01"), "b": seq("011")})

    def test_classes_never_merge_distinct_multisets(self):
        sys13 = build_system(13)
        labeled = {f"s{i:02d}": construct_in(sys13, i)[0] for i in range(5, 17)}
        for cls in classify(labeled):
            dists = {
                tuple(oacf_distribution(labeled[m]).entries.items())
                for m in cls.members
            }
            assert len(dists) == 1


def _cell_relation_holds(relation, sign):
    """A Table-4 relation on the 40 cells (n, k) of Z_8 x {D_0..D_3, 0}:
    byte 5n + k of each code table, k = 4 for the zero cell.  Decimation by
    eta(1, alpha^e) moves cell (n, k) to (n, k + e), and negation, the shift
    by 4p = eta(4, 0), moves it to (n + 4, k); so the relation holds at a
    prime of its f parity exactly when the target's table is the source's
    read at (n + 4*neg, k + sign*e), whatever the prime.  Sign +1 reads the
    printed parameter and -1 its inverse."""
    _, i_src, i_tgt, e, negate_first = relation
    src, tgt = _CODE_TABLES[i_src - 1], _CODE_TABLES[i_tgt - 1]
    return all(
        tgt[5 * n + k] == src[5 * ((n + 4 * negate_first) % 8) + (k if k == 4 else (k + sign * e) % 4)]
        for n in range(8) for k in range(5)
    )


class TestTable4:
    def test_relations_hold_on_the_cells_in_one_direction(self):
        signs = [[sign for sign in (1, -1) if _cell_relation_holds(relation, sign)]
                 for relation in TABLE4_RELATIONS]
        assert signs == [[-1]] * 4 + [[1]] + [[-1]] * 3

    @pytest.mark.parametrize("p_even, p_odd", [(17, 13), (41, 29), (137, 197)])
    def test_cells_predict_each_match(self, p_even, p_odd):
        for relation, row in zip(TABLE4_RELATIONS, verify_table4(p_even, p_odd).rows):
            assert row.printed_match == _cell_relation_holds(relation, 1), row.row
            assert row.inverse_match == _cell_relation_holds(relation, -1), row.row

    @pytest.mark.parametrize("p", [13, 17, 29])
    def test_each_cell_map_is_its_witness(self, p):
        # the witness (eta(w, alpha^j), eta(m, 0)) reads cell
        # (w*n + m mod 8, k + j mod 4) of the table where s reads (n, k);
        # the zero cell k = 4 stays fixed
        system = build_system(p)
        eta, _ = crt_iso(p)
        cls = {a: k for k, members in enumerate(system.classes) for a in members}
        cells = [(i % 8, cls.get(i % p, 4)) for i in range(4 * p)]
        for index in (i for i in range(1, 17) if is_applicable(i, p)):
            s, _ = construct_in(system, index)
            table = _CODE_TABLES[index - 1]
            for w in (1, 3, 5, 7):
                for m in range(8):
                    for j in range(4):
                        witness = AffineWitness(eta(w, pow(system.alpha, j, p)), eta(m, 0))
                        expected = "".join(
                            chr(table[5 * ((w * n + m) % 8) + (k if k == 4 else (k + j) % 4)])
                            for n, k in cells
                        )
                        assert apply_witness(witness, s) == seq(expected), (index, w, m, j)

    def test_relations_confirmed_at_17_13(self):
        report = verify_table4(17, 13)
        assert report.all_passed
        assert len(report.rows) == 8
        directions = [row.direction for row in report.rows]
        # the printed parameter works directly only for row 5; the other
        # rows need its inverse mod 2N (the support-image reading)
        assert directions == ["inverse"] * 4 + ["printed"] + ["inverse"] * 3
        for row in report.rows:
            assert row.witness is not None

    def test_row1_explicit_composition(self):
        sys17 = build_system(17)
        s1, _ = construct_in(sys17, 1)
        s4, _ = construct_in(sys17, 4)
        # d = 97 is 1 mod 8 and alpha^-3 mod 17; negation then
        # nega-decimation lands exactly on the row-1 partner
        assert 97 % 8 == 1 and 97 % 17 == pow(3, -3, 17)
        assert nega_decimate(negate(s1), 97) == s4
        # the printed exponent (alpha^3, d = 129) does not reproduce it
        assert nega_decimate(negate(s1), 129) != s4

    def test_row5_printed_parameter_works(self):
        sys13 = build_system(13)
        s9, _ = construct_in(sys13, 9)
        s12, _ = construct_in(sys13, 12)
        d = 73  # 1 mod 8, alpha^3 = 8 mod 13
        assert d % 8 == 1 and d % 13 == pow(2, 3, 13)
        assert nega_decimate(s9, d) == s12

    def test_parity_validation(self):
        # the construction's parity check, a ValueError, names the construction
        with pytest.raises(ValueError, match=re.escape("construction 1 requires f even (p=13 has f=3)")):
            verify_table4(13, 13)
        with pytest.raises(ValueError, match=re.escape("construction 5 requires f odd (p=17 has f=4)")):
            verify_table4(17, 17)

    def test_wrong_parity_raises_before_any_search(self, monkeypatch):
        # rows 1-2 are valid at p=17, so only building every pair first
        # keeps their witness searches from running before row 3 raises
        searches = []
        search = oacf.equivalence.oacf_equivalent
        monkeypatch.setattr(oacf.equivalence, "oacf_equivalent",
                            lambda a, b: searches.append((a, b)) or search(a, b))
        with pytest.raises(ConstructionInapplicableError):
            verify_table4(17, 17)
        assert searches == []

    def test_works_at_other_primes(self):
        assert verify_table4(17, 5).all_passed
        assert verify_table4(41, 29).all_passed

    @pytest.mark.parametrize("p_even, p_odd", [(17, 13), (41, 29), (17, 5)])
    def test_built_systems_give_the_primes_report(self, p_even, p_odd):
        report = verify_table4(p_even, p_odd)
        assert verify_table4(build_system(p_even), build_system(p_odd)) == report
        assert verify_table4(build_system(p_even), p_odd) == report
        assert verify_table4(p_even, build_system(p_odd)) == report

    def test_a_system_of_another_generator_is_rejected(self):
        # 6 generates Z*_13 too, but Table 4 reads each prime's smallest root
        with pytest.raises(ValueError, match="^Table 4 uses the smallest primitive root of 13, 2, not 6$"):
            verify_table4(17, build_system(13, 6))
        with pytest.raises(ValueError, match="^Table 4 uses the smallest primitive root of 17, 3, not 5$"):
            verify_table4(build_system(17, 5), 13)

    def test_report_serialization(self, capsys):
        report = verify_table4(17, 13)
        main(["verify", "--table4", "--primes", "17,13", "--json"])
        d = json.loads(capsys.readouterr().out)["table4"]
        assert d["pass"] is True
        assert len(d["rows"]) == 8
        assert d["rows"][0]["source"] == "s1" and d["rows"][0]["target"] == "s4"
        assert set(d) == {"p_even_f", "p_odd_f", "rows", "pass"}
        assert set(d["rows"][0]) == {
            "row", "p", "source", "target", "negation", "exponent", "d_printed", "printed_match",
            "d_inverse", "inverse_match", "direction", "witness", "pass",
        }
        assert d["rows"][0]["witness"] == {"d": report.rows[0].witness.d, "t": report.rows[0].witness.t}
        main(["verify", "--table4", "--primes", "17,13"])
        assert "PASS" in capsys.readouterr().out.splitlines()[0]
