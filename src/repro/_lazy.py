"""Lazy package namespaces (PEP 562).

Every package under :mod:`repro` declares its public names as a table
``{name: target}`` and hands it to :func:`attach`, which returns the
module-level ``__getattr__`` and ``__dir__``::

    _LAZY = {
        "Session": "session",                    # session.Session
        "ptx_builder": "ptx.program:ProgramBuilder",  # renamed export
        "kernel": "kernel:",                     # the submodule itself
    }
    __all__ = list(_LAZY)
    __getattr__, __dir__ = attach(__name__, _LAZY)

A target is a submodule path relative to the package (a leading dot
climbs one package up, as in a relative import), optionally followed by
``:attr`` (the attribute to export under ``name``; the default is
``name`` itself) or by a bare ``:`` (export the submodule).  This is the
``module:attr`` reference syntax of :func:`pkgutil.resolve_name`.

Importing the package imports none of its submodules.  The first access
to a name imports its submodule and stores the value in the package
globals, so every later lookup is an ordinary dict hit and never reaches
``__getattr__`` again.  ``from pkg import *`` binds exactly ``__all__``,
resolving each name on the way.
"""

import sys
from importlib import import_module
from types import ModuleType
from typing import Callable, Dict, List, Tuple


def attach(
    package: str, table: Dict[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """Return ``(__getattr__, __dir__)`` serving ``table`` for ``package``."""
    module = sys.modules[package]
    namespace = module.__dict__

    def __getattr__(name: str) -> object:
        try:
            target = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        path, colon, attr = target.partition(":")
        value = import_module(f".{path}", package)
        if attr or not colon:
            value = getattr(value, attr or name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(table))

    # Loading a submodule binds it on its package under its own name; a
    # name exported from the same-named submodule (``litmus.explain`` is
    # the function in ``litmus/explain.py``) must not be shadowed by it.
    shadowed = frozenset(
        name for name, target in table.items() if target == name
    )
    if shadowed:

        class _Package(ModuleType):
            def __setattr__(self, name: str, value: object) -> None:
                if (
                    name in shadowed
                    and isinstance(value, ModuleType)
                    and value.__name__ == f"{package}.{name}"
                ):
                    value = getattr(value, name)
                super().__setattr__(name, value)

        module.__class__ = _Package

    return __getattr__, __dir__
