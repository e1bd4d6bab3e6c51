"""The public names of the ``oacf`` package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import oacf
from oacf import constructions, cyclotomy, equivalence, sequences

MODULES = (constructions, cyclotomy, equivalence, sequences)

PUBLIC_NAMES = [
    "AffineWitness", "BinarySequence", "CONSTRUCTIONS", "ConstructionInapplicableError",
    "ConstructionSpec", "CorrelationProfile", "CyclotomicSystem", "EquivalenceClass", "MAX_N",
    "MAX_P", "NotCoprimeError", "SequenceParseError", "TABLE4_RELATIONS", "Table4Report",
    "Table4RowReport", "ValueMultiset", "VerificationReport", "apply_witness", "build_system",
    "classify", "complement_cset_index", "compose", "construct", "construct_in",
    "construction_spec", "constructions", "crt_iso", "cyclic_shift", "cyclotomy", "decimate",
    "equivalence", "expand_g", "expand_gamma_indices", "is_applicable", "is_odd_optimal",
    "is_prime", "is_primitive_root", "nega_cyclic_shift", "nega_decimate", "negate", "oacf",
    "oacf_distribution", "oacf_equivalent", "oacf_profile", "pacf", "pacf_profile",
    "parker_double", "peak_oacf", "quartic_decomposition", "reachable_without_negadecimation",
    "sequences", "smallest_primitive_root", "try_parker_split", "verify_table", "verify_table4",
]


def test_public_names_are_pinned():
    # a fresh interpreter, since importing oacf.cli elsewhere binds ``oacf.cli``
    child = "import oacf; print(' '.join(sorted(n for n in dir(oacf) if not n.startswith('_'))))"
    env = dict(os.environ, PYTHONPATH=str(Path(oacf.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == PUBLIC_NAMES
    submodules = [module.__name__.removeprefix("oacf.") for module in MODULES]
    assert sorted(submodules + [name for module in MODULES for name in module.__all__]) == PUBLIC_NAMES


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_module_all_is_bound_in_package(module):
    for name in module.__all__:
        assert getattr(oacf, name) is getattr(module, name), name
