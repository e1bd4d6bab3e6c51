import math

import pytest

from oacf import (
    MAX_P,
    build_system,
    complement_cset_index,
    is_prime,
    is_primitive_root,
    quartic_decomposition,
    smallest_primitive_root,
)

from oracle import classes_reference, cset


def primes_1_mod_4(limit):
    return [p for p in range(5, limit) if is_prime(p) and p % 4 == 1]


class TestPrimality:
    def test_small_values(self):
        assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_larger(self):
        assert is_prime(7919)
        assert not is_prime(7917)

    def test_agrees_with_a_sieve_up_to_max_p(self):
        sieve = [False, False] + [True] * (MAX_P - 1)
        for n in range(2, math.isqrt(MAX_P) + 1):
            if sieve[n]:
                sieve[n * n::n] = [False] * len(sieve[n * n::n])
        assert [n for n in range(-3, MAX_P + 1) if is_prime(n)] == [
            n for n in range(MAX_P + 1) if sieve[n]]


class TestQuarticDecomposition:
    @pytest.mark.parametrize(
        "p,expected",
        [(5, (1, 1, 1)), (13, (-3, 1, 3)), (17, (1, 2, 4)), (29, (5, 1, 7)), (37, (1, 3, 9))],
    )
    def test_known_values(self, p, expected):
        assert quartic_decomposition(p) == expected

    def test_normalization_and_exactness(self):
        for p in primes_1_mod_4(MAX_P + 1):
            x, y, f = quartic_decomposition(p)
            assert x * x + 4 * y * y == p
            assert x % 4 == 1
            assert y >= 0
            assert 4 * f + 1 == p

    def test_deterministic(self):
        assert quartic_decomposition(97) == quartic_decomposition(97)

    @pytest.mark.parametrize("p", [4, 7, 15, 19])
    def test_domain_errors(self, p):
        with pytest.raises(ValueError):
            quartic_decomposition(p)


class TestPrimitiveRoot:
    @pytest.mark.parametrize("p,root", [(5, 2), (13, 2), (17, 3), (31, 3)])
    def test_smallest(self, p, root):
        assert smallest_primitive_root(p) == root

    def test_brute_force_cross_check(self):
        # the smallest g of multiplicative order p - 1, counted step by step
        def order(g, p):
            k, power = 1, g
            while power != 1:
                k, power = k + 1, power * g % p
            return k

        for p in range(3, 2000):
            if is_prime(p):
                root = next(g for g in range(2, p) if order(g, p) == p - 1)
                assert smallest_primitive_root(p) == root, p
                # root^k has order (p - 1) / gcd(k, p - 1), so it generates iff k is a unit
                assert not is_primitive_root(0, p) and not is_primitive_root(p, p)
                power = 1
                for k in range(p - 1):
                    assert is_primitive_root(power, p) == (math.gcd(k, p - 1) == 1), (p, power)
                    power = power * root % p

    def test_domain_error(self):
        with pytest.raises(ValueError, match=r"^p must be a prime >= 3, got 2$"):
            smallest_primitive_root(2)
        with pytest.raises(ValueError, match=r"^p must be a prime >= 3, got 15$"):
            smallest_primitive_root(15)


class TestSystem:
    def test_p13_classes(self):
        sys13 = build_system(13)
        assert sys13.alpha == 2
        assert sys13.classes == (
            frozenset({1, 3, 9}),
            frozenset({2, 5, 6}),
            frozenset({4, 10, 12}),
            frozenset({7, 8, 11}),
        )

    def test_p5_classes(self):
        sys5 = build_system(5)
        assert sys5.classes == (
            frozenset({1}),
            frozenset({2}),
            frozenset({4}),
            frozenset({3}),
        )

    def test_partition(self):
        for p in primes_1_mod_4(200):
            system = build_system(p)
            union = set()
            for members in system.classes:
                assert len(members) == system.f
                assert not union & members
                union |= members
            assert union == set(range(1, p))

    def test_multiplicative_action(self):
        # multiplying a class by alpha steps the class index by one
        for p in (5, 13, 17, 29, 41):
            system = build_system(p)
            for k, members in enumerate(system.classes):
                shifted = {a * system.alpha % p for a in members}
                assert shifted == system.classes[(k + 1) % 4]
                cubed = {a * pow(system.alpha, 3, p) % p for a in members}
                assert cubed == system.classes[(k + 3) % 4]

    def test_class_of(self):
        sys13 = build_system(13)
        assert 9 in sys13.classes[0]
        assert 11 in sys13.classes[3]
        assert not any(0 in members for members in sys13.classes)

    def test_f_parity_matches_residue_mod_8(self):
        for p in primes_1_mod_4(200):
            f = (p - 1) // 4
            assert (f % 2 == 0) == (p % 8 == 1)

    def test_alpha_override(self):
        sys13 = build_system(13, alpha=6)  # 6 is also a generator mod 13
        assert sys13.alpha == 6
        assert sys13.classes[0] == frozenset({1, 9, 3})  # 6^0, 6^4, 6^8
        with pytest.raises(ValueError, match=r"^3 is not a primitive root mod 13$"):
            build_system(13, alpha=3)  # 3 has order 3
        assert build_system(13, alpha=19) == build_system(13, alpha=6)  # 19 = 6 mod 13

    def test_p_above_limit_fails_fast(self):
        # the guard runs before the trial division and the class sets
        with pytest.raises(ValueError, match=f"^p must be at most MAX_P = {MAX_P}, got {MAX_P + 1}$"):
            build_system(MAX_P + 1)

    def test_is_primitive_root(self):
        assert is_primitive_root(2, 13)
        assert not is_primitive_root(3, 13)
        assert not is_primitive_root(13, 13)


class TestClassTable:
    def check(self, system):
        reference = classes_reference(system.p, system.alpha)
        assert system.classes == reference
        table = system.class_of
        assert len(table) == system.p and table[0] == 4
        assert all(table[a] == k for k, members in enumerate(reference) for a in members)
        assert [table.count(k) for k in range(5)] == [system.f] * 4 + [1]

    def test_every_prime_below_2000(self):
        primes = primes_1_mod_4(2000)
        assert primes[0] == 5  # f = 1
        for p in primes:
            self.check(build_system(p))

    @pytest.mark.parametrize("p", [13, 29, 37])
    def test_every_primitive_root(self, p):
        roots = [g for g in range(2, p) if is_primitive_root(g, p)]
        assert len(roots) == len([k for k in range(1, p) if math.gcd(k, p - 1) == 1])
        for alpha in roots:
            self.check(build_system(p, alpha))


class TestCSets:
    def test_definitions(self):
        sys13 = build_system(13)
        d0, d1, d2, d3 = sys13.classes
        assert cset(sys13, 1).members == d0 | d1
        assert cset(sys13, 2).members == d0 | d2
        assert cset(sys13, 3).members == d0 | d3
        assert cset(sys13, 4).members == d1 | d2
        assert cset(sys13, 5).members == d1 | d3
        assert cset(sys13, 6).members == d2 | d3

    def test_c3_at_p13(self):
        sys13 = build_system(13)
        assert cset(sys13, 3).members == frozenset({1, 3, 9, 7, 8, 11})

    def test_complement_pairing(self):
        sys17 = build_system(17)
        everything = set(range(1, 17))
        for i in range(1, 7):
            assert complement_cset_index(i) == 7 - i
            assert (
                cset(sys17, i).members | cset(sys17, 7 - i).members == everything
            )
            assert not cset(sys17, i).members & cset(sys17, 7 - i).members

    def test_size(self):
        for p in (5, 13, 29):
            system = build_system(p)
            for i in range(1, 7):
                assert len(cset(system, i).members) == 2 * system.f

    def test_index_validation(self):
        sys5 = build_system(5)
        with pytest.raises(ValueError):
            cset(sys5, 0)
        with pytest.raises(ValueError):
            cset(sys5, 7)
