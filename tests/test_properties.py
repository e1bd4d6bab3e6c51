"""Property tests of the kernels and the witness search against ``oracle``.

Hypothesis runs derandomized with a bounded number of examples, so the
suite draws the same cases on every run.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from oacf import (
    AffineWitness,
    BinarySequence,
    apply_witness,
    cyclic_shift,
    decimate,
    nega_cyclic_shift,
    nega_decimate,
    negate,
    oacf,
    oacf_equivalent,
    oacf_profile,
    pacf,
    pacf_profile,
    parker_double,
    try_parker_split,
)

import oracle
from goldens import PROFILE_BLOCKS, profile_path

bounded = settings(derandomize=True, max_examples=60, deadline=None)


def bit_lists(max_period):
    return st.lists(st.integers(0, 1), min_size=1, max_size=max_period)


def units(modulus):
    return st.integers(1, modulus).filter(lambda d: math.gcd(d, modulus) == 1)


def wide_units(modulus, n):
    # units mod ``modulus`` anywhere in [-4N, 4N], outside the reduced range too
    return st.integers(-4 * n, 4 * n).filter(lambda d: math.gcd(d, modulus) == 1)


def witness_image(bits, data):
    # the image of ``bits`` under a drawn witness, or an unrelated sequence
    n = len(bits)
    if data.draw(st.booleans()):
        d, t = data.draw(units(2 * n)), data.draw(st.integers(0, 2 * n - 1))
        return oracle.apply_witness_naive(bits, d, t)
    return data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))


@bounded
@given(bit_lists(64))
def test_profiles_match_oracle(bits):
    s = BinarySequence.from_bits(bits)
    n = len(bits)
    for block in PROFILE_BLOCKS:
        with profile_path(block):
            assert pacf_profile(s).values == tuple(oracle.pacf_naive(bits, tau) for tau in range(n))
            assert oacf_profile(s).values == tuple(oracle.oacf_naive(bits, tau) for tau in range(n))
            assert [pacf(s, tau) for tau in range(n)] == list(pacf_profile(s).values)
            assert [oacf(s, tau) for tau in range(n)] == list(oacf_profile(s).values)


@bounded
@given(bit_lists(64), st.data())
def test_operations_match_oracle(bits, data):
    s = BinarySequence.from_bits(bits)
    n = len(bits)
    tau = data.draw(st.integers(0, n - 1))
    d = data.draw(wide_units(n, n))
    d2 = data.draw(wide_units(2 * n, n))
    t = data.draw(st.integers(-4 * n, 4 * n))
    assert negate(s).bits() == oracle.negate_naive(bits)
    assert cyclic_shift(s, tau).bits() == oracle.cyclic_shift_naive(bits, tau)
    assert nega_cyclic_shift(s, tau).bits() == oracle.nega_cyclic_shift_naive(bits, tau)
    assert decimate(s, d).bits() == oracle.decimate_naive(bits, d)
    assert nega_decimate(s, d2).bits() == oracle.nega_decimate_naive(bits, d2)
    assert apply_witness(AffineWitness(d2, t), s).bits() == oracle.apply_witness_naive(bits, d2, t)


@bounded
@given(bit_lists(8), st.data())
def test_search_matches_brute_force(bits, data):
    target = witness_image(bits, data)
    witness = oacf_equivalent(BinarySequence.from_bits(bits), BinarySequence.from_bits(target))
    expected = oracle.oacf_equivalent_naive(bits, target)
    assert (None if witness is None else (witness.d, witness.t)) == expected


@bounded
@given(bit_lists(64), st.data())
def test_found_witness_maps_source_to_target(bits, data):
    s = BinarySequence.from_bits(bits)
    target = BinarySequence.from_bits(witness_image(bits, data))
    witness = oacf_equivalent(s, target)
    if witness is not None:
        assert apply_witness(witness, s) == target


@bounded
@given(bit_lists(64))
def test_parker_split_inverts_doubling(bits):
    s = BinarySequence.from_bits(bits)
    assert try_parker_split(parker_double(s)) == s
