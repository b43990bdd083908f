"""The compiled kernels the solver uses, bound straight from scipy's files.

The solver needs six LAPACK routines and the type-1 sine and cosine
transforms.  Importing them through `scipy.linalg` and `scipy.fft` would load
scipy's array-API layer, which in turn loads numpy.f2py, numpy.testing,
numpy.ma and scipy.special, and costs every process far more than the
kernels themselves.  This module instead loads the two extension modules
that hold the kernels, `scipy/linalg/_flapack` and
`scipy/fft/_pocketfft/pypocketfft`, by file location, under their own
names, so a later `import scipy.linalg` or `import scipy.fft` reuses them.

Reaching into those files ties this module to one scipy release: any other
version raises ImportError.  It is the only module of the package that
imports scipy.

dst and dct make the call `scipy.fft.dst` / `scipy.fft.dct` make for real
float64 input with the default norm and workers, so their output is the
same bit for bit.  They accept nothing else: where scipy would cast, copy an
unaligned array or pad, they raise ValueError.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np
import scipy

__all__ = [
    "SCIPY_VERSION", "dgtcon", "dgttrf", "dgttrs", "dpttrf", "dpttrs", "dtbtrs", "dst", "dct",
]

SCIPY_VERSION = "1.17.1"

if scipy.__version__ != SCIPY_VERSION:
    raise ImportError(
        f"robinslab binds scipy {SCIPY_VERSION}'s kernel files, "
        f"but scipy {scipy.__version__} is installed"
    )


def _load_extension(name: str):
    """Load scipy's extension module `name` from its file, or reuse a loaded one."""
    if name in sys.modules:
        return sys.modules[name]
    stem = os.path.join(os.path.dirname(scipy.__file__), *name.split(".")[1:])
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.exists(stem + suffix):
            break
    else:
        raise ImportError(f"no extension module file for {name} at {stem}")
    spec = importlib.util.spec_from_file_location(name, stem + suffix)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


_flapack = _load_extension("scipy.linalg._flapack")
_pocketfft = _load_extension("scipy.fft._pocketfft.pypocketfft")

dgtcon = _flapack.dgtcon
dgttrf = _flapack.dgttrf
dgttrs = _flapack.dgttrs
dpttrf = _flapack.dpttrf
dpttrs = _flapack.dpttrs
dtbtrs = _flapack.dtbtrs


def _r2r(transform, x: np.ndarray, type: int, axis: int) -> np.ndarray:
    if getattr(x, "dtype", None) != np.float64 or not x.flags.aligned:
        got = getattr(x, "dtype", x.__class__.__name__)
        raise ValueError(f"transform input must be an aligned float64 array, got {got}")
    if x.shape[axis] < 1:
        raise ValueError(f"invalid number of data points ({x.shape[axis]}) specified")
    # (axes, norm 0 = unnormalised forward, out None, 1 worker, orthogonalize None)
    return transform(x, type, (axis,), 0, None, 1, None)


def dst(x: np.ndarray, type: int, axis: int = -1) -> np.ndarray:
    """Unnormalised discrete sine transform of a float64 array along `axis`."""
    return _r2r(_pocketfft.dst, x, type, axis)


def dct(x: np.ndarray, type: int, axis: int = -1) -> np.ndarray:
    """Unnormalised discrete cosine transform of a float64 array along `axis`."""
    return _r2r(_pocketfft.dct, x, type, axis)
