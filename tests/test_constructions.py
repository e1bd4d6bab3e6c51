import json

import pytest

from oacf import (
    CONSTRUCTIONS,
    MAX_P,
    ConstructionInapplicableError,
    build_system,
    construct,
    construct_in,
    construction_spec,
    crt_iso,
    expand_g,
    expand_gamma_indices,
    is_applicable,
    is_prime,
    is_primitive_root,
    nega_decimate,
    oacf,
    oacf_distribution,
    oacf_profile,
    pacf,
    parker_double,
    quartic_decomposition,
    try_parker_split,
    verify_table,
)
from oacf.cli import main
from oacf.constructions import _CODE_TABLES, _instantiate

import oracle
from oracle import build_support, cset, expand_gamma


class TestCrtIso:
    def test_phi_direct(self):
        _, phi = crt_iso(5)
        assert phi(13) == (5, 3)

    def test_eta_direct(self):
        eta, _ = crt_iso(5)
        assert eta(1, 0) == 25

    def test_round_trip(self):
        eta, phi = crt_iso(31)
        assert eta(*phi(100)) == 100
        for z in range(8 * 31):
            assert eta(*phi(z)) == z

    def test_bijection_small(self):
        eta, _ = crt_iso(5)
        images = {eta(n, a) for n in range(8) for a in range(5)}
        assert images == set(range(40))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            crt_iso(2)


class TestExpansion:
    def test_expand_g_examples(self):
        assert expand_g({2}) == frozenset({2, 4, 5, 7})
        assert expand_g({0, 1, 3}) == frozenset({0, 1, 3, 6})
        assert expand_g(set()) == frozenset({4, 5, 6, 7})

    def test_expand_g_complement_rule(self):
        for spec in CONSTRUCTIONS:
            g = expand_g(spec.g_prime)
            for j in range(4):
                assert (j in g) != ((j + 4) in g)

    def test_expand_g_validation(self):
        with pytest.raises(ValueError):
            expand_g({4})

    def test_expand_gamma_indices(self):
        assert expand_gamma_indices((3, 4, 1, 1)) == (3, 4, 1, 1, 4, 3, 6, 6)
        assert expand_gamma_indices((1, 6, 4, 4)) == (1, 6, 4, 4, 6, 1, 3, 3)

    def test_expand_gamma_sets_complement(self):
        sys13 = build_system(13)
        sets = expand_gamma((5, 2, 1, 1), sys13)
        everything = set(range(1, 13))
        assert len(sets) == 8
        for n in range(4):
            assert sets[n] | sets[n + 4] == everything
            assert not sets[n] & sets[n + 4]


class TestSupport:
    def test_size_is_4p(self):
        for index, p in [(1, 17), (5, 5), (9, 13), (16, 29)]:
            system = build_system(p)
            support = build_support(construction_spec(index), system)
            assert len(support.residues) == 4 * p
            assert support.modulus == 8 * p

    def test_complement_pairing(self):
        system = build_system(17)
        support = build_support(construction_spec(1), system)
        n = 4 * 17
        for z in range(8 * 17):
            assert (z in support.residues) != (((z + n) % (2 * n)) in support.residues)

    def test_component_projection(self):
        # row 9's slice at Z8-coordinate 0 is {0} plus the C5 members
        sys13 = build_system(13)
        support = build_support(construction_spec(9), sys13)
        _, phi = crt_iso(13)
        slice0 = {phi(z)[1] for z in support.residues if phi(z)[0] == 0}
        assert slice0 == {0} | set(cset(sys13, 5).members)

    def test_parity_mismatch(self):
        with pytest.raises(ConstructionInapplicableError):
            build_support(construction_spec(1), build_system(13))


class TestTableDrivenWord:
    # f = (p-1)/4 is odd at 5, 13, 29, 37 and 1009 and even at 17 and 401
    @pytest.mark.parametrize("p", [5, 13, 17, 29, 37, 401, 1009])
    def test_matches_support_reference(self, p):
        largest_root = next(g for g in range(p - 1, 1, -1) if is_primitive_root(g, p))
        for alpha in (None, largest_root):
            system = build_system(p, alpha)
            indices = [i for i in range(1, 17) if is_applicable(i, p)]
            assert len(indices) == (4 if system.f % 2 == 0 else 12)
            for index in indices:
                support = build_support(construction_spec(index), system)
                u = oracle.characteristic_reference(support)
                assert construct_in(system, index) == (try_parker_split(u), u), (p, alpha, index)

    def test_half_period_rule_on_the_cells(self):
        # z + 4p lies in cell (n + 4, k) when z lies in (n, k), so u splits
        # as s || (s + 1) at every prime exactly when each table gives the
        # two cells opposite bits
        for index, table in enumerate(_CODE_TABLES, 1):
            for n in range(8):
                for k in range(5):
                    assert table[5 * ((n + 4) % 8) + k] != table[5 * n + k], (index, n, k)


class TestConstruct:
    def test_periods_and_split(self):
        s, u = construct(9, 13)
        assert s.period == 52
        assert u.period == 104
        assert parker_double(s) == u

    def test_parity_errors(self):
        with pytest.raises(ConstructionInapplicableError):
            construct(1, 13)  # needs f even
        with pytest.raises(ConstructionInapplicableError):
            construct(5, 17)  # needs f odd

    def test_applicability(self):
        assert is_applicable(1, 17) and not is_applicable(1, 13)
        assert is_applicable(9, 13) and not is_applicable(9, 17)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            construct(0, 13)
        with pytest.raises(ValueError):
            construct(17, 13)

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError):
            construct(1, 15)

    def test_value_set_c1_p17(self):
        s, _ = construct(1, 17)
        values = {oacf(s, t) for t in range(1, s.period)}
        assert values == {0, 2, -2, 4, -4, 10, -10}

    def test_value_set_c5_p5(self):
        # (x, y) = (1, 1): the smallest-generator build realizes the -y
        # branch, where 2x - 4y = -2 collapses into the +-2 values
        s, _ = construct(5, 5)
        values = {oacf(s, t) for t in range(1, s.period)}
        assert values == {0, 2, -2, 4, -4}
        report = verify_table(5, 5)
        assert report.matched and report.branch == "-y" and report.collapsed

    def test_doubling_identity_on_construction(self):
        for index, p in [(1, 17), (9, 13), (13, 5)]:
            s, u = construct(index, p)
            for tau in range(0, s.period, 7):
                assert pacf(u, tau) == 2 * oacf(s, tau)

    def test_deterministic(self):
        assert construct(9, 13) == construct(9, 13)

    def test_any_generator_matches_some_branch(self):
        # the generator choice relabels the classes, which can swap the
        # realized sign of y; every generator must still match a branch
        branches = set()
        for alpha in (2, 6, 7, 11):
            report = verify_table(9, 13, alpha)
            assert report.matched
            branches.add(report.branch)
        assert branches == {"+y", "-y"}  # both branches genuinely occur


class TestVerifyTable:
    def test_row1_p17(self):
        report = verify_table(1, 17)
        assert report.matched
        assert report.branch == "+y"
        assert report.computed == (-10, -4, -2, 0, 2, 4, 10)
        assert (report.x, report.y, report.f) == (1, 2, 4)

    def test_row9_p13(self):
        report = verify_table(9, 13)
        assert report.matched

    def test_row3_p17(self):
        report = verify_table(3, 17)
        assert report.matched
        # 2x - 4y = 2 - 8 = -6 at (x, y) = (1, 2)
        assert report.expected == (-6, -4, -2, 0, 2, 4, 6)

    def test_all_rows_all_parity_matched_primes(self):
        for p in (17, 41):
            for index in range(1, 5):
                assert verify_table(index, p).matched, (index, p)
        for p in (5, 13, 29, 37):
            for index in range(5, 17):
                assert verify_table(index, p).matched, (index, p)

    def test_sign_of_y_changes_every_value_set_up_to_max_p(self):
        # so at most one branch matches, and "+y" or "-y" names it
        primes = [p for p in range(5, MAX_P + 1) if is_prime(p) and p % 4 == 1]
        assert len(primes) == 609
        for p in primes:
            x, y, _ = quartic_decomposition(p)
            for spec in CONSTRUCTIONS:
                if is_applicable(spec.index, p):
                    terms = spec.value_terms
                    assert _instantiate(terms, x, y) != _instantiate(terms, x, -y), (spec.index, p)

    def test_report_serialization(self, capsys):
        main(["verify", "--tables", "--primes", "17", "--json"])
        d = json.loads(capsys.readouterr().out)["tables"][0]
        assert d["index"] == 1 and d["p"] == 17 and d["matched"] is True
        assert d["computed"] == sorted(d["computed"])
        main(["verify", "--tables", "--primes", "17"])
        assert capsys.readouterr().out.startswith("c01 p=17: PASS")

    @staticmethod
    def _full_value_set(index, p, alpha=None):
        system = build_system(p, alpha)
        s, _ = construct_in(system, index)
        # the identity the 19 shifts rest on: eta(1, alpha^4) fixes every cell
        eta, _ = crt_iso(p)
        assert nega_decimate(s, eta(1, system.alpha**4 % p)) == s, (index, p, alpha)
        return tuple(oacf_distribution(s, include_zero_shift=False).entries)

    def test_orbit_values_match_full_profile(self):
        # the 19 orbit shifts against every shift tau in [1, 4p), on
        # sequences checked to be fixed by the nega-decimation
        primes = [p for p in range(5, 401) if is_prime(p) and p % 4 == 1]
        for p in primes:
            for index in range(1, 17):
                if is_applicable(index, p):
                    full = self._full_value_set(index, p)
                    assert verify_table(index, p).computed == full, (index, p)
        for p in (13, 29, 37):
            for alpha in filter(lambda g: is_primitive_root(g, p), range(2, p)):
                for index in range(5, 17):
                    full = self._full_value_set(index, p, alpha)
                    assert verify_table(index, p, alpha).computed == full, (index, p, alpha)

    def test_tables_row_reads_19_shifts_and_gathers_nothing(self, capsys, monkeypatch):
        import oacf.constructions
        import oacf.sequences

        gathers, shift_counts = [], []
        gathered, correlations_at = oacf.sequences._gathered, oacf.constructions._correlations_at

        def counted_gather(*args):
            gathers.append(args[1:])
            return gathered(*args)

        def counted_correlations(a, sign, shifts):
            shift_counts.append(len(shifts))
            return correlations_at(a, sign, shifts)

        monkeypatch.setattr(oacf.sequences, "_gathered", counted_gather)
        monkeypatch.setattr(oacf.constructions, "_correlations_at", counted_correlations)
        assert main(["verify", "--tables", "--primes", "13"]) == 0
        assert capsys.readouterr().out.endswith("tables: 12/12 rows passed\nverify: PASS\n")
        assert gathers == []
        assert shift_counts == [19] * 12

    def test_a_built_system_gives_the_prime_s_report(self):
        primes = [p for p in range(5, 401) if is_prime(p) and p % 4 == 1]
        for p in primes:
            system = build_system(p)
            for index in range(1, 17):
                if is_applicable(index, p):
                    assert verify_table(index, system) == verify_table(index, p), (index, p)
        for p in (13, 29, 37):
            # the second generator, so the system's own alpha must be read
            alpha = [g for g in range(2, p) if is_primitive_root(g, p)][1]
            system = build_system(p, alpha)
            for index in range(5, 17):
                assert verify_table(index, system) == verify_table(index, p, alpha), (index, p, alpha)

    def test_a_built_system_takes_no_alpha(self):
        with pytest.raises(ValueError, match="built system"):
            verify_table(9, build_system(13), 6)

    @pytest.mark.parametrize("argv, builds", [
        (["--primes", "13,17,29"], [(13, None), (17, None), (29, None)]),
        (["--primes", "13", "--alpha", "6"], [(13, 6)]),
    ])
    def test_verify_tables_builds_each_prime_once(self, argv, builds, capsys, monkeypatch):
        import oacf.cli
        import oacf.constructions

        calls = []

        def counting(build):
            def build_system(p, alpha=None):
                calls.append((p, alpha))
                return build(p, alpha)
            return build_system

        for module in (oacf.cli, oacf.constructions):
            monkeypatch.setattr(module, "build_system", counting(module.build_system))
        assert main(["verify", "--tables", *argv]) == 0
        assert capsys.readouterr().out.endswith("verify: PASS\n")
        assert calls == builds

    def test_oacf_profile_antisymmetry_on_construction(self):
        s, _ = construct(2, 17)
        profile = oacf_profile(s).values
        n = s.period
        for tau in range(1, n):
            assert profile[tau] == -profile[n - tau]


class TestSweepBelow150:
    def test_every_applicable_pair(self):
        from oacf import is_prime

        primes = [p for p in range(5, 150) if is_prime(p) and p % 4 == 1]
        assert len(primes) == 16
        for p in primes:
            system = build_system(p)
            n = 4 * p
            indices = range(1, 5) if system.f % 2 == 0 else range(5, 17)
            for index in indices:
                s, u = construct_in(system, index)
                assert u.period == 8 * p
                assert s.period == n
                # balanced support: exactly 4p ones in u
                assert u.word.bit_count() == n
                # complement pairing and the doubling identity
                assert try_parker_split(u) == s
                for tau in range(n):
                    assert pacf(u, tau) == 2 * oacf(s, tau)
