"""Exact-arithmetic toolkit for sumset density experiments.

Builds block sets (multiples of odd primorials over doubling windows),
counts them and their power-of-two sumsets exactly, audits every
inequality of the associated density bound chain with rational
arithmetic, and runs covering-congruence and prime-plus-power-of-two
scans.

The package's public names are its layers' ``__all__`` lists, and no
other list. A name is imported from the first layer in ``_LAYERS`` whose
``__all__`` holds it, on first access, so ``import sumsetlab`` (and the
CLI, which imports a layer only to run it) loads no layer it does not
use. A ``_``-prefixed name is refused without importing any layer;
``__all__`` and ``dir()`` import every layer.
"""

import importlib

from ._version import __version__

# the layers that export public names, in import order
_LAYERS = ("errors", "arith", "blocks", "sumset", "depolignac")


def _layers():
    return (importlib.import_module(f".{layer}", __name__) for layer in _LAYERS)


def __getattr__(name: str):
    if name == "__all__":
        value = ["__version__", *(public for layer in _layers() for public in layer.__all__)]
    else:
        # a _-prefixed name is never public, so no layer is imported to look for it
        homes = () if name.startswith("_") else (m for m in _layers() if name in m.__all__)
        home = next(iter(homes), None)
        if home is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(home, name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
