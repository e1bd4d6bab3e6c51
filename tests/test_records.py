"""The package's records, and the modules that importing the package and
running the CLI load."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import oacf
from oacf import (
    AffineWitness,
    BinarySequence,
    build_system,
    classify,
    construction_spec,
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

    @pytest.mark.parametrize("args, kwargs", [((1,), {}), ((1, 2, 3), {}), ((1,), {"d": 2}),
                                              ((1,), {"u": 2})])
    def test_wrong_fields_rejected(self, args, kwargs):
        with pytest.raises(TypeError):
            AffineWitness(*args, **kwargs)


TABLE4 = verify_table4(17, 13)


@pytest.mark.parametrize("record", [
    AffineWitness(1, 0),
    oacf_profile(BinarySequence.from_string("0110")),
    build_system(13),
    construction_spec(9),
    verify_table(9, 13),
    TABLE4.rows[0],
    TABLE4,
], ids=lambda record: type(record).__name__)
def test_read_only_records(record):
    field = next(iter(vars(record)))
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        delattr(record, field)
    hash(record)


def test_equivalence_class_is_mutable():
    s = BinarySequence.from_string("0110")
    (cls,) = classify({"a": s})
    cls.members += ("b",)
    assert cls.members == ("a", "b")
    with pytest.raises(TypeError):
        hash(cls)


def test_verification_report_rebuilds_from_its_fields():
    report = verify_table(9, 13)
    assert list(vars(report)) == [
        "index", "p", "x", "y", "f", "alpha", "matched", "branch", "computed", "expected", "collapsed",
    ]
    rebuilt = type(report)(**vars(report))
    assert rebuilt == report
