"""Lazy package exports (PEP 562).

Every ``repro`` package ``__init__`` lists what it re-exports as one
table, submodule -> names, and hands it to :func:`lazy_exports`.  A
name's submodule is imported the first time the name is read, so
importing one submodule of a package loads only what that submodule
imports: a ``repro serve`` child echoing integers never loads numpy or
``repro.models``.  Under ``PYTHONDONTWRITEBYTECODE`` every module an
interpreter imports is compiled again, so the modules a command loads
are its start-up time.
"""

from __future__ import annotations

import importlib
import sys
from typing import Dict, Tuple


def lazy_exports(package: str, table: Dict[str, Tuple[str, ...]]):
    """``(__getattr__, __dir__, __all__)`` for ``package``, whose
    ``table`` maps each submodule to the names it exports.

    A name read once is bound on the package, so it costs one import and
    one call, then a plain attribute read.  A name that is also its
    submodule's name (``repro.models.nms``) is bound now: importing the
    submodule later would otherwise leave the module under that name.
    """
    home = {name: module for module, names in table.items()
            for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute "
                                 f"{name!r}") from None
        value = getattr(importlib.import_module(f".{module}", package), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(namespace.keys() | home.keys())

    for module, names in table.items():
        if module in names:
            __getattr__(module)
    return __getattr__, __dir__, list(home)
