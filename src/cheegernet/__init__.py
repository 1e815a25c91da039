"""Collar geometry, isoperimetric ratios, and coarse net graphs for
pants-decomposed hyperbolic surfaces; submodules load on first access."""

from importlib import import_module

__version__ = "0.1.0"

__all__ = ["families", "graphtools", "hypmath", "isoperimetry", "netgraph", "surface", "__version__"]


def __getattr__(name: str):
    if name in __all__:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
