"""Odd-periodic autocorrelation toolkit for binary sequences.

Core objects: bit-packed BinarySequence, PACF/OACF kernels, the doubling
transformation and its inverse split, the OACF-preserving operations
(negation, nega-cyclic shift, nega-decimation), quartic cyclotomic
constructions of period 4p, and an exhaustive affine-witness equivalence
engine.

The package reads every public name of its four modules, but a module is
imported only when one of its names, or the module itself, is first used.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_SUBMODULES = ("sequences", "cyclotomy", "constructions", "equivalence")


def __getattr__(name: str):
    # each module's __all__ is the one declaration of the package API
    if name in _SUBMODULES:
        return _import_module(f".{name}", __name__)
    if name == "__all__":  # what ``from oacf import *`` binds
        return [n for module in map(__getattr__, _SUBMODULES) for n in module.__all__] + list(_SUBMODULES)
    for module in map(__getattr__, _SUBMODULES):  # imported one by one, in order
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__getattr__("__all__")))
