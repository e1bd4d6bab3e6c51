"""Odd-periodic autocorrelation toolkit for binary sequences.

Core objects: bit-packed BinarySequence, PACF/OACF kernels, the doubling
transformation and its inverse split, the OACF-preserving operations
(negation, nega-cyclic shift, nega-decimation), quartic cyclotomic
constructions of period 4p, and an exhaustive affine-witness equivalence
engine.
"""

from .sequences import (
    MAX_N,
    BinarySequence,
    CorrelationProfile,
    NotCoprimeError,
    SequenceParseError,
    ValueMultiset,
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
from .cyclotomy import (
    MAX_P,
    CyclotomicSystem,
    build_system,
    complement_cset_index,
    is_prime,
    is_primitive_root,
    quartic_decomposition,
    smallest_primitive_root,
)
from .constructions import (
    CONSTRUCTIONS,
    ConstructionInapplicableError,
    ConstructionSpec,
    VerificationReport,
    construct,
    construct_in,
    construction_spec,
    crt_iso,
    expand_g,
    expand_gamma_indices,
    is_applicable,
    verify_table,
)
from .equivalence import (
    TABLE4_RELATIONS,
    AffineWitness,
    EquivalenceClass,
    Table4Report,
    Table4RowReport,
    apply_witness,
    classify,
    compose,
    oacf_equivalent,
    reachable_without_negadecimation,
    verify_table4,
)

__version__ = "0.1.0"
