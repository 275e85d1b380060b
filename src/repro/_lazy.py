"""PEP 562 lazy package exports, written once for every package ``__init__``.

A package lists its public names in ``__all__`` as usual and binds

    __getattr__ = lazy_exports(globals(), {
        "repro.core.pareto": ("pareto_front", "hypervolume"),
    })

so importing the package (or any of its submodules) loads nothing else:
each name imports its defining submodule on first access and is then
cached in the package globals, so later lookups never reach
``__getattr__``.  Unknown names raise :class:`AttributeError`, which is
also what lets ``from package import submodule`` fall through to the
import system.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable


def lazy_exports(
    namespace: dict[str, Any], exports: dict[str, tuple[str, ...]],
) -> Callable[[str], Any]:
    """Module ``__getattr__`` resolving ``exports`` (submodule -> names).

    Its ``exports`` attribute maps each name to its submodule, so a test
    can check every name against the module that defines it.
    """
    by_name = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = by_name.get(name)
        if module is None:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    __getattr__.exports = by_name
    return __getattr__
