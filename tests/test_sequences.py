import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from oacf import (
    MAX_N,
    AffineWitness,
    BinarySequence,
    NotCoprimeError,
    SequenceParseError,
    apply_witness,
    cyclic_shift,
    decimate,
    is_odd_optimal,
    nega_cyclic_shift,
    nega_decimate,
    negate,
    oacf,
    oacf_distribution,
    oacf_profile,
    pacf,
    pacf_profile,
    parker_double,
    peak_oacf,
    try_parker_split,
)

import goldens
import oracle
from goldens import PROFILE_BLOCKS, profile_path, random_sequence, seq


class TestBinarySequence:
    def test_from_string_round_trip(self):
        s = seq("0110")
        assert str(s) == "0110"
        assert s.bits() == [0, 1, 1, 0]
        assert s.period == 4
        assert len(s) == 4
        assert repr(s) == "BinarySequence('0110')"

    def test_separators_ignored(self):
        assert seq("0 1,1\t0\n") == seq("0110")

    def test_parse_error_position(self):
        with pytest.raises(SequenceParseError) as err:
            seq("010x1")
        assert err.value.position == 3
        with pytest.raises(SequenceParseError):
            seq(", ,")

    def test_raw_access_bounds(self):
        s = seq("01")
        assert s[0] == 0 and s[1] == 1
        with pytest.raises(IndexError):
            s[2]
        with pytest.raises(IndexError):
            s[-1]

    def test_from_bits_validation(self):
        assert BinarySequence.from_bits([1, 0, 1]) == seq("101")
        with pytest.raises(ValueError):
            BinarySequence.from_bits([0, 2])

    def test_word_validation(self):
        with pytest.raises(ValueError):
            BinarySequence(4, 2)
        with pytest.raises(ValueError):
            BinarySequence(0, 0)

    def test_hashable(self):
        assert len({seq("01"), seq("01"), seq("10")}) == 2


class TestCorrelation:
    def test_pacf_constant(self):
        assert pacf(seq("0000"), 1) == 4

    def test_pacf_alternating(self):
        assert pacf(seq("01"), 1) == -2

    def test_pacf_of_doubled_31(self):
        u = seq(goldens.SEQ31_DOUBLED)
        assert pacf(u, 3) == -14  # twice the odd-periodic value at shift 3

    def test_oacf_all_zero(self):
        profile = oacf_profile(seq("0000"))
        assert profile.values == (4, 2, 0, -2)
        assert profile.period == 4

    def test_oacf_period10(self):
        assert oacf_profile(seq(goldens.PAIR10_A)).values == goldens.PAIR10_A_OACF
        assert oacf_profile(seq(goldens.PAIR10_B)).values == goldens.PAIR10_B_OACF

    def test_oacf_period31(self):
        assert oacf(seq(goldens.SEQ31), 3) == -7
        assert oacf_profile(seq(goldens.SEQ31)).values == goldens.SEQ31_OACF
        assert (
            oacf_profile(seq(goldens.SEQ31_NEGADEC3)).values
            == goldens.SEQ31_NEGADEC3_OACF
        )

    def test_pacf_profile_alternating(self):
        assert pacf_profile(seq("0101")).values == (4, -4, 4, -4)

    def test_shift_range_errors(self):
        with pytest.raises(ValueError):
            pacf(seq("0101"), 4)
        with pytest.raises(ValueError):
            oacf(seq("0101"), -1)

    def test_profile_kind_tags(self):
        assert oacf_profile(seq("01")).kind == "OACF"
        assert pacf_profile(seq("01")).kind == "PACF"


class TestDistribution:
    def test_period31_multiset(self):
        dist = oacf_distribution(seq(goldens.SEQ31))
        assert dist.entries == goldens.SEQ31_OACF_MULTISET
        assert sum(dist.entries.values()) == 31

    def test_all_zero_n2(self):
        assert oacf_distribution(seq("00")).entries == {2: 1, 0: 1}

    def test_exclude_zero_shift(self):
        # frozen from tallying the profile tail by hand: nine shifts total
        dist = oacf_distribution(seq(goldens.PAIR10_A), include_zero_shift=False)
        assert dist.entries == {0: 3, -2: 2, 2: 2, -4: 1, 4: 1}
        assert sum(dist.entries.values()) == 9

    def test_multiset_notation(self):
        dist = oacf_distribution(seq(goldens.SEQ31))
        assert dist.multiset_notation() == (
            "{* (-9)^2, (-7)^3, (-5)^3, -3, (-1)^6, 1^6, 3, 5^3, 7^3, 9^2, 31 *}"
        )
        assert repr(dist) == f"ValueMultiset({dist.multiset_notation()})"


class TestPeakAndOptimality:
    def test_peak_values(self):
        assert peak_oacf(seq(goldens.PAIR10_A)) == 4
        assert peak_oacf(seq(goldens.SEQ31)) == 9
        assert peak_oacf(seq("0000")) == 2

    def test_peak_undefined_for_period_1(self):
        with pytest.raises(ValueError):
            peak_oacf(seq("0"))

    def test_is_odd_optimal(self):
        assert is_odd_optimal(seq("0000"))  # peak 2, N even
        assert not is_odd_optimal(seq("01"))  # degenerate peak 0 != 2
        assert not is_odd_optimal(seq(goldens.PAIR10_A))  # peak 4


class TestElementaryOps:
    def test_negate(self):
        assert negate(seq("01")) == seq("10")

    def test_cyclic_shift_matches_definition(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randrange(1, 24)
            s = random_sequence(rng, n)
            tau = rng.randrange(n)
            assert cyclic_shift(s, tau).bits() == oracle.cyclic_shift_naive(
                s.bits(), tau
            )

    def test_nega_cyclic_shift(self):
        assert nega_cyclic_shift(seq("01"), 1) == seq("11")
        rng = random.Random(12)
        for _ in range(20):
            n = rng.randrange(1, 24)
            s = random_sequence(rng, n)
            assert nega_cyclic_shift(s, 0) == s
            tau = rng.randrange(n)
            assert nega_cyclic_shift(s, tau).bits() == oracle.nega_cyclic_shift_naive(
                s.bits(), tau
            )

    def test_nega_shift_order_is_2n(self):
        rng = random.Random(13)
        for n in (2, 5, 8, 13):
            s = random_sequence(rng, n)
            cur = s
            for _ in range(2 * n):
                cur = nega_cyclic_shift(cur, 1)
            assert cur == s
            half = s
            for _ in range(n):
                half = nega_cyclic_shift(half, 1)
            assert half == negate(s)

    def test_decimate(self):
        assert decimate(seq(goldens.PAIR10_A), 3) == seq(goldens.PAIR10_B)
        s = seq("0110101")
        assert decimate(s, 1) == s
        assert decimate(seq("0000"), 3) == seq("0000")

    def test_decimate_not_coprime(self):
        message = "gcd(d=2, N=6) = 2; decimation requires gcd(d, N) = 1"
        with pytest.raises(NotCoprimeError, match=f"^{re.escape(message)}$"):
            decimate(seq("010101"), 2)

    def test_shift_errors(self):
        with pytest.raises(ValueError):
            cyclic_shift(seq("01"), 2)
        with pytest.raises(ValueError):
            nega_cyclic_shift(seq("01"), -1)


class TestDoubling:
    def test_double_small(self):
        assert parker_double(seq("01")) == seq("0110")

    def test_double_period31(self):
        assert str(parker_double(seq(goldens.SEQ31))) == goldens.SEQ31_DOUBLED

    def test_doubling_identity(self):
        # PACF of the doubled sequence = 2 * OACF, all shifts below N
        rng = random.Random(14)
        for _ in range(25):
            n = rng.randrange(1, 40)
            s = random_sequence(rng, n)
            u = parker_double(s)
            for tau in range(n):
                assert pacf(u, tau) == 2 * oacf(s, tau)

    def test_split(self):
        assert try_parker_split(seq("0110")) == seq("01")
        assert try_parker_split(seq("0101")) is None
        assert try_parker_split(seq("011")) is None
        assert try_parker_split(
            seq(goldens.SEQ31_DOUBLED_DEC3)
        ) == seq(goldens.SEQ31_NEGADEC3)

    def test_split_inverts_double(self):
        rng = random.Random(15)
        for _ in range(20):
            s = random_sequence(rng, rng.randrange(1, 50))
            assert try_parker_split(parker_double(s)) == s


class TestNegaDecimate:
    def test_period31(self):
        assert nega_decimate(seq(goldens.SEQ31), 3) == seq(goldens.SEQ31_NEGADEC3)

    def test_identity(self):
        s = seq("0110100")
        assert nega_decimate(s, 1) == s

    def test_hand_traced_n2(self):
        assert nega_decimate(seq("01"), 3) == seq("00")

    def test_not_coprime(self):
        message = "gcd(d=3, 2N=6) = 3; nega-decimation requires gcd(d, 2N) = 1"
        with pytest.raises(NotCoprimeError, match=f"^{re.escape(message)}$"):
            nega_decimate(seq("010"), 3)
        with pytest.raises(NotCoprimeError):
            nega_decimate(seq("0101"), 2)

    def test_agrees_with_double_decimate_split(self):
        import math

        rng = random.Random(16)
        # all valid d for small periods
        for _ in range(12):
            n = rng.randrange(1, 17)
            s = random_sequence(rng, n)
            for d in range(1, 2 * n, 2):
                if math.gcd(d, 2 * n) != 1:
                    continue
                assert nega_decimate(s, d) == try_parker_split(
                    decimate(parker_double(s), d)
                )
        # random d up to period 128
        for _ in range(40):
            n = rng.randrange(1, 129)
            s = random_sequence(rng, n)
            d = rng.randrange(1, 2 * n + 1, 2)
            while math.gcd(d, 2 * n) != 1:
                d += 2
            assert nega_decimate(s, d) == try_parker_split(
                decimate(parker_double(s), d)
            )


class TestInvariants:
    def test_doubled_pacf_antiperiodic(self):
        # shifting the doubled sequence by N negates its PACF
        rng = random.Random(17)
        for _ in range(20):
            n = rng.randrange(1, 32)
            u = parker_double(random_sequence(rng, n))
            for tau in range(n):
                assert pacf(u, tau + n) == -pacf(u, tau)

    def test_oacf_antisymmetric(self):
        rng = random.Random(18)
        for _ in range(20):
            n = rng.randrange(2, 48)
            s = random_sequence(rng, n)
            profile = oacf_profile(s).values
            for tau in range(1, n):
                assert profile[tau] == -profile[n - tau]
            if n % 2 == 0:
                assert profile[n // 2] == 0

    def test_value_parity(self):
        rng = random.Random(19)
        for _ in range(20):
            n = rng.randrange(1, 40)
            s = random_sequence(rng, n)
            for tau in range(n):
                assert (oacf(s, tau) - n) % 2 == 0
                assert (pacf(s, tau) - n) % 2 == 0

    def test_peak_lower_bound_sampled(self):
        rng = random.Random(20)
        for _ in range(60):
            n = rng.randrange(3, 100)
            s = random_sequence(rng, n)
            assert peak_oacf(s) >= (1 if n % 2 else 2)

    def test_decimation_not_oacf_preserving(self):
        # regression: this specific period-10 pair has different multisets
        a = oacf_distribution(seq(goldens.PAIR10_A))
        b = oacf_distribution(seq(goldens.PAIR10_B))
        assert a != b
        # equal multisets hash alike
        assert len({a, b, oacf_distribution(seq(goldens.PAIR10_A))}) == 2


def _parse_outcome(parse, text):
    # (word, period) of a parsed literal, or (type, message, position) of
    # the error it raised
    try:
        s = parse(text)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)
    return s.word, s.period


def _bits_outcome(build, bits):
    # (word, period) of the sequence built from one pass over ``bits``, or
    # the error: a ValueError with its message, a TypeError (a non-integer
    # bit equal to 0 or 1, such as 1.0) by its type alone, since the
    # operation that rejects it differs
    try:
        s = build(iter(bits))
    except ValueError as exc:
        return ValueError, str(exc)
    except TypeError:
        return TypeError
    return s.word, s.period


def _unit(rng, modulus):
    # a random d with gcd(d, modulus) = 1, drawn from a range wider than the
    # modulus and of either sign
    while True:
        d = rng.randrange(-3 * modulus, 3 * modulus)
        if math.gcd(d, modulus) == 1:
            return d


class TestKernelsAgainstOracle:
    """The linear-time text I/O and the single-pass correlation and affine
    kernels against the per-bit references in ``tests/oracle.py``."""

    PARSE_CASES = (
        "", " ", " , \t\r\n", "0", "1", " 0101 ", "\n1,0\t1\r", "1_0", "_10",
        "+101", "-101", "٣", "10٣", "0b101", "1 0\u00a01", "10\v1", "10\f",
        "1.0", "10e", "１0",
    )

    def test_from_string_matches_reference_on_edge_cases(self):
        for text in self.PARSE_CASES:
            assert _parse_outcome(BinarySequence.from_string, text) == _parse_outcome(
                oracle.from_string_reference, text
            ), repr(text)

    BITS_CASES = (
        [], [0], [1], [True, False, True], b"\x01\x00\x01", "0101", [0, 2], [2], [1, -1],
        ["1"], [None], [0.5], [1.0], [1.0, 2], [0, 1, 1.0, 2], [1, Fraction(1)], [1 + 0j],
    )

    def test_from_bits_matches_reference(self):
        rng = random.Random(64)
        seeded = [[rng.getrandbits(1) for _ in range(rng.randrange(1, 300))] for _ in range(100)]
        for bits in (*self.BITS_CASES, *seeded, [rng.getrandbits(1) for _ in range(MAX_N)]):
            assert _bits_outcome(BinarySequence.from_bits, bits) == _bits_outcome(
                oracle.from_bits_reference, bits
            ), repr(bits)[:80]

    def test_from_string_matches_reference_on_seeded_literals(self):
        rng = random.Random(61)
        alphabet = "01" * 4 + " \t\r\n,"
        for _ in range(300):
            chars = [rng.choice(alphabet) for _ in range(rng.randrange(0, 300))]
            if rng.random() < 0.6:
                bad = rng.choice("_+-٣x2 ")
                chars.insert(rng.randrange(len(chars) + 1), bad)
            text = "".join(chars)
            assert _parse_outcome(BinarySequence.from_string, text) == _parse_outcome(
                oracle.from_string_reference, text
            ), repr(text)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 4096])
    def test_text_round_trip(self, n):
        rng = random.Random(n)
        for word in (0, (1 << n) - 1, 1, 1 << (n - 1), rng.getrandbits(n)):
            s = BinarySequence(word, n)
            text = str(s)
            assert text == "".join(str((word >> i) & 1) for i in range(n))
            assert s.bits() == [(word >> i) & 1 for i in range(n)]
            assert BinarySequence.from_string(text) == s
            assert oracle.from_string_reference(text) == s
            assert BinarySequence.from_bits(s.bits()) == s

    def test_profiles_match_naive(self):
        rng = random.Random(62)
        # every word of N <= 3, whose mirrored half is empty or one value
        smallest = [BinarySequence(word, n) for n in (1, 2, 3) for word in range(1 << n)]
        for s in [*smallest, *(random_sequence(rng, rng.randrange(1, 65)) for _ in range(60))]:
            n = s.period
            bits = s.bits()
            expected_oacf = tuple(oracle.oacf_naive(bits, t) for t in range(n))
            expected_pacf = tuple(oracle.pacf_naive(bits, t) for t in range(n))
            for block in PROFILE_BLOCKS:
                with profile_path(block):
                    assert oacf_profile(s).values == expected_oacf
                    assert pacf_profile(s).values == expected_pacf
                    for start, include_zero in ((0, True), (1, False)):
                        assert oacf_distribution(s, include_zero).entries == dict(
                            sorted(Counter(expected_oacf[start:]).items())
                        )
                    if n > 1:
                        assert peak_oacf(s) == max(abs(v) for v in expected_oacf[1:])

    @pytest.mark.parametrize("n", [1000, 4096])
    def test_profiles_match_single_shift(self, n):
        s = random_sequence(random.Random(n), n)
        assert oacf_profile(s).values == tuple(oacf(s, t) for t in range(n))
        assert pacf_profile(s).values == tuple(pacf(s, t) for t in range(n))

    def test_affine_ops_match_naive(self):
        rng = random.Random(63)
        for _ in range(80):
            n = rng.randrange(1, 65)
            s = random_sequence(rng, n)
            bits = s.bits()
            d = _unit(rng, n)
            assert decimate(s, d).bits() == oracle.decimate_naive(bits, d)
            d = _unit(rng, 2 * n)
            assert nega_decimate(s, d).bits() == oracle.nega_decimate_naive(bits, d)
            t = rng.randrange(-4 * n, 4 * n)
            assert apply_witness(AffineWitness(d, t), s).bits() == (
                oracle.apply_witness_naive(bits, d, t)
            )

    def test_affine_ops_match_naive_at_4096(self):
        n = 4096
        rng = random.Random(n)
        s = random_sequence(rng, n)
        bits = s.bits()
        d = _unit(rng, 2 * n)
        t = rng.randrange(2 * n)
        assert decimate(s, d).bits() == oracle.decimate_naive(bits, d)
        assert nega_decimate(s, d).bits() == oracle.nega_decimate_naive(bits, d)
        assert apply_witness(AffineWitness(d, t), s).bits() == (
            oracle.apply_witness_naive(bits, d, t)
        )

    def test_gathers_match_naive_exhaustively(self):
        # every unit d in [-4N, 4N] and every offset t, so every column count
        # and both directions of the column step are read; at N = 1 every d
        # is a unit and every column step is 0, so both words pin that case
        cases = [BinarySequence(w, 1) for w in (0, 1)]
        cases += [random_sequence(random.Random(n), n) for n in range(2, 25)]
        for s in cases:
            n, bits = s.period, s.bits()
            for d in range(-4 * n, 4 * n + 1):
                if math.gcd(d, n) == 1:
                    assert decimate(s, d).bits() == oracle.decimate_naive(bits, d), (n, d)
                if math.gcd(d, 2 * n) == 1:
                    assert nega_decimate(s, d).bits() == oracle.nega_decimate_naive(bits, d), (n, d)
                    for t in range(-2 * n, 2 * n):
                        assert apply_witness(AffineWitness(d, t), s).bits() == (
                            oracle.apply_witness_naive(bits, d, t)
                        ), (n, d, t)
