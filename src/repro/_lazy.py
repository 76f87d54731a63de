"""Lazy package exports: a package's public names resolve on first use.

A package ``__init__`` declares which submodule defines each public name
and installs the returned PEP 562 hooks::

    __getattr__, __dir__ = lazy_exports(__name__, {"sub": ("Name",)})

Importing the package then imports none of its submodules; reading
``package.Name`` (``from package import Name`` included) imports
``package.sub`` once and caches ``Name`` in the package namespace.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Iterable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``__getattr__`` and ``__dir__`` of ``package``.

    ``exports`` maps each submodule, relative to ``package``, to the
    names it defines.  Any other public attribute that names a submodule
    (``package.sub``) imports and returns that submodule.
    """
    owners = {name: sub for sub, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        if name in owners:
            module = importlib.import_module(f"{package}.{owners[name]}")
            value = namespace[name] = getattr(module, name)
            return value
        if not name.startswith("_"):
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as error:
                if error.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        public = owners.keys() | set(namespace.get("__all__", ()))
        return sorted(namespace.keys() | public)

    return __getattr__, __dir__
