"""The compiled kernels the solver uses, bound straight from scipy's files.

The solver needs seven LAPACK routines, the type-1 sine transform and the
backward real FFT.  Importing them through `scipy.linalg` and `scipy.fft`
would load scipy's array-API layer, which in turn loads numpy.f2py,
numpy.testing, numpy.ma and scipy.special, and even a bare `import scipy`
loads its test utilities with subprocess, sysconfig and locale: all cost
every process more than the kernels themselves.  This module runs none of
scipy's package code.  It finds scipy's directory with
`importlib.util.find_spec`, which does not execute the package, reads the
installed version from that directory's `version.py` without registering
a module, and loads the two extension modules that hold the kernels,
`linalg/_flapack` and `fft/_pocketfft/pypocketfft`, by file location
under their scipy names, so a later `import scipy.linalg` or
`import scipy.fft` reuses them.

Reaching into those files ties this module to one scipy release: any other
version raises ImportError.  It is the only module of the package that
names scipy.

dst makes the call `scipy.fft.dst` makes for real float64 input with the
default norm and workers, and c2r the call `scipy.fft.irfft(x, lastsize,
norm="forward")` makes for complex128 input, so their output is the same
bit for bit.  They accept nothing else: where scipy would cast, copy an
unaligned array, pad or truncate, they raise ValueError.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

__all__ = [
    "SCIPY_VERSION", "dgtcon", "dgttrf", "dgttrs", "dpttrf", "dpttrs", "dstevd", "dtbtrs", "dst",
    "c2r",
]

SCIPY_VERSION = "1.17.1"


def _scipy_directory() -> str:
    """The installed scipy package's directory, found without running the package."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    return spec.submodule_search_locations[0]


def _exec_file(name: str, path: str):
    """The module that the file at path defines, executed under name."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_extension(name: str):
    """Load scipy's extension module `name` from its file, or reuse a loaded one."""
    if name in sys.modules:
        return sys.modules[name]
    stem = os.path.join(_SCIPY_DIR, *name.split(".")[1:])
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.exists(stem + suffix):
            break
    else:
        raise ImportError(f"no extension module file for {name} at {stem}")
    module = _exec_file(name, stem + suffix)
    sys.modules[name] = module
    return module


_SCIPY_DIR = _scipy_directory()
# read as scipy/__init__.py reads it, but never entered in sys.modules
_installed = _exec_file("scipy.version", os.path.join(_SCIPY_DIR, "version.py")).version
if _installed != SCIPY_VERSION:
    raise ImportError(
        f"robinslab binds scipy {SCIPY_VERSION}'s kernel files, "
        f"but scipy {_installed} is installed"
    )

_flapack = _load_extension("scipy.linalg._flapack")
_pocketfft = _load_extension("scipy.fft._pocketfft.pypocketfft")

dgtcon = _flapack.dgtcon
dgttrf = _flapack.dgttrf
dgttrs = _flapack.dgttrs
dpttrf = _flapack.dpttrf
dpttrs = _flapack.dpttrs
dstevd = _flapack.dstevd
dtbtrs = _flapack.dtbtrs


def _check(x: np.ndarray, dtype: type, axis: int) -> None:
    if getattr(x, "dtype", None) != dtype or not x.flags.aligned:
        got = getattr(x, "dtype", x.__class__.__name__)
        raise ValueError(f"transform input must be an aligned {dtype.__name__} array, got {got}")
    if x.shape[axis] < 1:
        raise ValueError(f"invalid number of data points ({x.shape[axis]}) specified")


def dst(x: np.ndarray, type: int, axis: int = -1) -> np.ndarray:
    """Unnormalised discrete sine transform of a float64 array along `axis`."""
    _check(x, np.float64, axis)
    # (axes, norm 0 = unnormalised forward, out None, 1 worker, orthogonalize None)
    return _pocketfft.dst(x, type, (axis,), 0, None, 1, None)


def c2r(x: np.ndarray, lastsize: int) -> np.ndarray:
    """Unnormalised backward real FFT of a complex128 half-spectrum along the last axis.

    The output is the real inverse DFT, without its 1/lastsize factor, of the
    Hermitian spectrum of length lastsize whose first n entries are x; for a
    last axis of length n, lastsize is 2n - 2 or 2n - 1 and at least 1.
    """
    _check(x, np.complex128, -1)
    n = x.shape[-1]
    if lastsize < 1 or lastsize not in (2 * n - 2, 2 * n - 1):
        raise ValueError(f"lastsize must be a positive 2n - 2 or 2n - 1, n = {n}, got {lastsize}")
    # (axes, lastsize, forward False, norm 0 = unnormalised, out None, 1 worker)
    return _pocketfft.c2r(x, (-1,), lastsize, False, 0, None, 1)
