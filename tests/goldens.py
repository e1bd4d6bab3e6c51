"""Golden test vectors, and the helpers that more than one test module uses.

A period-10 pair related by 3-decimation (which does NOT preserve the
odd-periodic profile), and a period-31 pair related by 3-fold
nega-decimation (which does), with their full odd-periodic profiles.

``seq``, ``random_sequence``, ``random_unit`` and ``profile_path`` are
defined here only; the test modules import them from this one definition.
"""

import contextlib
import math
from unittest import mock

from oacf import BinarySequence, sequences


def seq(text):
    return BinarySequence.from_string(text)


def random_sequence(rng, n):
    return BinarySequence(rng.getrandbits(n), n)


def random_unit(rng, modulus):
    """A random odd d in [1, modulus) with gcd(d, modulus) = 1."""
    while True:
        d = rng.randrange(1, modulus, 2)
        if math.gcd(d, modulus) == 1:
            return d


# None: _correlations as it is, per shift below its cutoff; else blocks of
# that many shifts at every N, which covers a partial last block at odd and
# even N
PROFILE_BLOCKS = (None, 1, 2, 3, 64)


def profile_path(block):
    """Run ``_correlations`` on the path that ``block`` names.  This module
    needs no pytest, so that ``test_cli_corpus.py --check`` runs without it."""
    if not block:
        return contextlib.nullcontext()
    return mock.patch.multiple(sequences, _BLOCKED_FROM=1, _BLOCK=block)


# period-10 pair: PAIR10_B is the 3-decimation of PAIR10_A
PAIR10_A = "1110100011"
PAIR10_B = "1001101110"
PAIR10_A_OACF = (10, 0, -2, -4, 2, 0, -2, 4, 2, 0)
PAIR10_B_OACF = (10, 0, -6, 0, 6, 0, -6, 0, 6, 0)

# period-31 sequence, its doubled form, the 3-decimation of the doubled
# form, and the truncated first half (= the 3-fold nega-decimation)
SEQ31 = "0111101010" "0010011100" "00011001011"
SEQ31_DOUBLED = SEQ31 + "1000010101" "1101100011" "11100110100"
SEQ31_DOUBLED_DEC3 = (
    "0110110011" "1010110101" "01100010000"
    "1001001100" "0101001010" "10011101111"
)
SEQ31_NEGADEC3 = "0110110011" "1010110101" "01100010000"

SEQ31_OACF = (
    31, 1, -1, -7, -1, -7, -1, 5, -1, 1, -9, 5, 3, 5, 7, 9,
    -9, -7, -5, -3, -5, 9, -1, 1, -5, 1, 7, 1, 7, 1, -1,
)
SEQ31_NEGADEC3_OACF = (
    31, -7, -1, 1, 3, 9, -5, 9, -5, 1, -1, 1, 7, 1, -5, -7,
    7, 5, -1, -7, -1, 1, -1, 5, -9, 5, -9, -3, -1, 1, 7,
)
# shared value multiset of both period-31 profiles (includes shift 0)
SEQ31_OACF_MULTISET = {
    -9: 2, -7: 3, -5: 3, -3: 1, -1: 6, 1: 6, 3: 1, 5: 3, 7: 3, 9: 2, 31: 1,
}
