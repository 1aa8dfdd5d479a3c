"""Lazy package exports (PEP 562): a package pays only for what it uses.

A package ``__init__`` declares its public names once, as a table from
submodule to the names it supplies, and calls :func:`export_lazily`::

    __all__ = export_lazily(globals(), {
        "engine": ("Engine", "RunResult"),
        "ops": ("read", "write"),
    })

A name is imported from its submodule on first access and then cached in
the package namespace, so later lookups are plain attribute reads.
``from package import *`` and ``dir(package)`` see every declared name.
A submodule of the package that is not an export is still reachable as
an attribute (``repro.net.quorum`` after ``import repro.net``), as it was
when every ``__init__`` imported all of its submodules.

A name that shadows its own submodule (``repro.verify.fuzz``, the
function, lives in ``repro.verify.fuzz``, the module) is bound eagerly:
the import system sets a package attribute to the submodule the first
time it loads, which would replace a lazily bound name of the same
spelling.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Dict, List, Sequence

__all__ = ["export_lazily"]


def export_lazily(namespace: Dict[str, Any], table: Dict[str, Sequence[str]]) -> List[str]:
    """Install ``__getattr__``/``__dir__`` in a package namespace; return
    its ``__all__``, in table order.

    ``table`` maps a submodule name, relative to the package, to the
    public names it supplies.
    """
    package = namespace["__name__"]
    owner = {name: sub for sub, names in table.items() for name in names}
    public = list(owner)

    def __getattr__(name: str) -> Any:
        sub = owner.get(name)
        if sub is not None:
            value = getattr(import_module(f"{package}.{sub}"), name)
            namespace[name] = value
            return value
        if not name.startswith("__"):
            try:
                return import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(public))

    namespace["__getattr__"] = __getattr__
    namespace["__dir__"] = __dir__
    for sub, names in table.items():
        if sub in names:
            module = import_module(f"{package}.{sub}")
            namespace.update((name, getattr(module, name)) for name in names)
    return public
