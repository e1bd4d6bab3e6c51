"""The package's records, and the modules that importing the package and
running the CLI load."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import oacf
from oacf import (
    AffineWitness,
    BinarySequence,
    EquivalenceClass,
    ValueMultiset,
    build_system,
    classify,
    construct,
    construction_spec,
    oacf_distribution,
    oacf_profile,
    verify_table,
    verify_table4,
)

from test_api import PUBLIC_NAMES


def _child(code: str) -> list[str]:
    """The words that ``code`` prints in a fresh interpreter, where no test
    has imported a module yet."""
    env = dict(os.environ, PYTHONPATH=str(Path(oacf.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.split()


def test_cli_import_loads_no_dataclasses_inspect_or_json():
    child = (
        "import sys; before = set(sys.modules); import oacf.cli; "
        "print(' '.join(sorted({'dataclasses', 'inspect', 'json'} & (set(sys.modules) - before))))"
    )
    assert _child(child) == []


_PRINT_LOADED = "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'oacf')))"
KERNELS = ["oacf", "oacf.cli", "oacf.sequences"]
LIBRARY = ["oacf.constructions", "oacf.cyclotomy", "oacf.equivalence"]


def test_package_import_loads_no_submodule():
    assert _child(f"import sys, oacf; {_PRINT_LOADED}") == ["oacf"]


@pytest.mark.parametrize("argv, code, loaded", [
    (["oacf", "0110"], 0, KERNELS),
    (["apply", "negate", "0110"], 0, KERNELS),
    (["oacf", "0x1"], 2, KERNELS),
    (["verify", "--tables", "--primes", "13"], 0, sorted(KERNELS + LIBRARY[:2])),
    # bench/spans.py's Tracer.install looks up every library module, and the
    # kernels pool loads them all with its d=1 equiv requests
    (["equiv", "0110", "1001", "--without-negadecimation"], 0, sorted(KERNELS + LIBRARY)),
], ids=["oacf", "apply", "oacf-error", "verify-tables", "equiv-d1"])
def test_a_subcommand_loads_only_the_modules_it_runs(argv, code, loaded):
    child = (
        "import contextlib, io, sys; from oacf.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    print(main({argv!r}), file=sys.__stdout__)\n"
        + _PRINT_LOADED
    )
    assert _child(child) == [str(code), *loaded]


def test_star_import_binds_the_public_names():
    child = "ns = {}; exec('from oacf import *', ns); print(' '.join(sorted(set(ns) - {'__builtins__'})))"
    assert _child(child) == PUBLIC_NAMES


class TestAffineWitness:
    def test_value_equality_and_hash(self):
        assert AffineWitness(3, 4) == AffineWitness(d=3, t=4)
        assert AffineWitness(3, 4) != AffineWitness(3, 5)
        assert hash(AffineWitness(3, 4)) == hash(AffineWitness(3, 4))
        assert len({AffineWitness(3, 4), AffineWitness(3, 4), AffineWitness(1, 0)}) == 2

    def test_order_is_lexicographic(self):
        witnesses = [AffineWitness(3, 1), AffineWitness(1, 5), AffineWitness(1, 2)]
        assert sorted(witnesses) == [AffineWitness(1, 2), AffineWitness(1, 5), AffineWitness(3, 1)]
        assert AffineWitness(1, 9) < AffineWitness(3, 0) <= AffineWitness(3, 0)

    def test_not_a_tuple(self):
        assert AffineWitness(1, 0) != (1, 0)
        with pytest.raises(TypeError):
            AffineWitness(1, 0) < (1, 1)

    def test_repr(self):
        assert repr(AffineWitness(3, 4)) == "AffineWitness(d=3, t=4)"

    @pytest.mark.parametrize("args, kwargs", [
        ((1,), {}), ((1, 2, 3), {}), ((1,), {"d": 2}), ((1,), {"u": 2}),  # mixed and positional
        ((), {"d": 1}), ((), {"d": 1, "t": 2, "u": 3}), ((), {"d": 1, "u": 2}),  # by keyword
        ((1, 2), {"d": 1}), ((1, 2), {"u": 3}),  # a full positional set and one keyword more
    ])
    def test_wrong_fields_rejected(self, args, kwargs):
        with pytest.raises(TypeError, match=r"^AffineWitness\(\) takes exactly the fields d, t$"):
            AffineWitness(*args, **kwargs)

    @pytest.mark.parametrize("args, kwargs", [((3, 4), {}), ((3,), {"t": 4}), ((), {"t": 4, "d": 3})])
    def test_fields_are_stored_in_order(self, args, kwargs):
        assert list(vars(AffineWitness(*args, **kwargs)).items()) == [("d", 3), ("t", 4)]


TABLE4 = verify_table4(17, 13)
CLASSES = classify({f"s{i}": construct(i, 13)[0] for i in range(5, 17)})
SEQUENCE = BinarySequence.from_string("0110")

RECORDS = [
    SEQUENCE,
    oacf_profile(SEQUENCE),
    oacf_distribution(SEQUENCE),
    AffineWitness(1, 0),
    CLASSES[0],
    build_system(13),
    construction_spec(9),
    verify_table(9, 13),
    TABLE4.rows[0],
    TABLE4,
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
def test_read_only_records(record):
    for field in vars(record):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            delattr(record, field)
    if not isinstance(record, EquivalenceClass):  # its witnesses dict is unhashable
        hash(record)


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
def test_records_pickle_and_copy_equal(record):
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is type(record) and twin == record
        assert vars(twin) == vars(record)


def test_classify_builds_each_class_once():
    assert [cls.representative for cls in CLASSES] == ["s10", "s12", "s5", "s6"]
    for cls in CLASSES:
        assert cls.members == tuple(cls.witnesses)
        assert cls.members[0] == cls.representative
        assert cls.witnesses[cls.representative] == AffineWitness(1, 0)
    with pytest.raises(AttributeError):
        CLASSES[0].members += ("s0",)
    assert "s0" not in CLASSES[0].members


def test_a_record_keeps_the_dunders_its_class_defines():
    assert repr(BinarySequence.from_string("0110")) == "BinarySequence('0110')"
    multiset = ValueMultiset([1, -3, 1, 4])
    assert repr(multiset) == "ValueMultiset({* -3, 1^2, 4 *})"
    assert hash(multiset) == hash(((-3, 1), (1, 2), (4, 1)))
    assert multiset == ValueMultiset([4, 1, -3, 1]) != ValueMultiset([1, -3, 4])
    assert BinarySequence(6, 4) != BinarySequence(6, 3) and SEQUENCE != "0110"


def test_verification_report_rebuilds_from_its_fields():
    report = verify_table(9, 13)
    assert list(vars(report)) == [
        "index", "p", "x", "y", "f", "alpha", "matched", "branch", "computed", "expected", "collapsed",
    ]
    rebuilt = type(report)(**vars(report))
    assert rebuilt == report
