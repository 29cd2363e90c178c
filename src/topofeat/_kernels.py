"""The compiled kernels of ``_kernels.c``, built on first use and loaded with ctypes.

The library holds the zero-phase band-pass of ingest, the Rips pairs of
homology, the k-PDTM neighbour statistics and fit of denoise, and the SMO
loop of classify's SVM.  The first band-pass, diagram or fit a process
computes, a full resume's classify included, compiles that file with gcc
(``-O2 -ffp-contract=off``, no machine-specific or fast-math flags) into
``~/.cache/topofeat/``, keyed by the source and the flags, so an edited
source is never run stale.  ``-ffp-contract=off`` keeps every product out of
a fused multiply-add, which some targets' defaults would use, so the
band-pass, k-PDTM and SMO arithmetic is the same on every machine; the SMO's
one fused step is an explicit call of libm's ``fma``.  Without a working
gcc, the first call raises RuntimeError naming the compiler and the source.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
from pathlib import Path

import numpy as np

_SOURCE = Path(__file__).with_name("_kernels.c")
_CC = "gcc"
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
_CACHE = Path.home() / ".cache" / "topofeat"
_LIB = None  # the loaded library, once a band-pass, diagram or fit needs it


def _compiled() -> Path:
    """The library built from ``_SOURCE``, compiling it into ``_CACHE`` if absent.

    The compiler writes a file named for this process, which then replaces
    the library in one step, so processes that build at once never see a
    partial file.  A missing or failing compiler raises RuntimeError.
    """
    source = _SOURCE.read_bytes()
    key = hashlib.sha256(source + " ".join(_CFLAGS).encode()).hexdigest()[:16]
    lib = _CACHE / f"_kernels-{key}.so"
    if lib.exists():
        return lib
    cc = shutil.which(_CC)
    if cc is None:
        raise RuntimeError(f"C compiler {_CC!r} not found; it is needed to build {_SOURCE}")
    _CACHE.mkdir(mode=0o700, parents=True, exist_ok=True)
    tmp = lib.with_name(f"{lib.name}.{os.getpid()}.tmp")
    try:
        subprocess.run([cc, *_CFLAGS, "-o", str(tmp), str(_SOURCE)], check=True,
                       capture_output=True, text=True)
    except (OSError, subprocess.CalledProcessError) as exc:
        tmp.unlink(missing_ok=True)
        detail = getattr(exc, "stderr", None) or str(exc)
        raise RuntimeError(f"{cc} failed to build {_SOURCE}: {detail.strip()}") from exc
    os.replace(tmp, lib)
    return lib


def _library() -> ctypes.CDLL:
    """The compiled kernels, built and loaded on the first call of this process."""
    global _LIB
    if _LIB is None:
        lib = ctypes.CDLL(str(_compiled()))
        i64 = ctypes.c_int64

        def array(dtype, ndim=None):
            return np.ctypeslib.ndpointer(dtype, ndim=ndim, flags="C_CONTIGUOUS")

        ints, floats = array(np.int64), array(np.float64)
        lib.rips_pairs.argtypes = [i64, array(np.float64, 2), ctypes.c_double, floats, floats,
                                   floats, ints]
        lib.rips_pairs.restype = ctypes.c_int
        lib.mass_stats.argtypes = [i64, i64, floats, i64, floats, i64, floats, floats]
        lib.mass_stats.restype = ctypes.c_int
        lib.kpdtm_fit.argtypes = [i64, i64, floats, i64, ints, i64, i64,
                                  floats, floats, floats, floats]
        lib.kpdtm_fit.restype = i64
        lib.svm_smo.argtypes = [i64, array(np.float64, 2), floats, ctypes.c_double,
                                ctypes.c_double, i64, i64, array(np.uint64), floats, floats]
        lib.svm_smo.restype = ctypes.c_int
        lib.filtfilt.argtypes = [i64, i64, array(np.float64, 2), i64, floats, floats, floats, i64,
                                 array(np.float64, 2)]
        lib.filtfilt.restype = ctypes.c_int
        _LIB = lib
    return _LIB
