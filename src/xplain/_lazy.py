"""Re-exports that a package imports on first use (PEP 562).

Each CLI command is a fresh interpreter, so a package `__init__` that
imported every submodule would make every command pay for all of them.
"""

import importlib


def export(namespace, modules, submodules=()):
    """Give a package's `namespace` a lazy `__getattr__` and `__dir__`.

    `modules` maps a relative submodule name (".analyzer") to the names the
    package re-exports from it; `submodules` names submodules the package
    exports whole. A name is imported on first access and then kept in
    `namespace`, so later lookups cost what an eager import's would.
    Returns the exported names, for the package's `__all__`.
    """
    package = namespace["__name__"]
    where = {name: module for module, names in modules.items() for name in names}

    def __getattr__(name):
        if name in submodules:
            return importlib.import_module(f".{name}", package)
        if name not in where:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(where[name], package), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted({*namespace, *where, *submodules})

    namespace["__getattr__"] = __getattr__
    namespace["__dir__"] = __dir__
    return [*submodules, *where]
