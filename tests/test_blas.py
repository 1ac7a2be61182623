"""Which BLAS kernel a run used.

CG's dot products go through BLAS, and two golden tables depend on how
they round (see GOLDEN in ``test_cli.py``).  OpenBLAS picks a kernel for
the CPU unless ``OPENBLAS_CORETYPE`` names one; CI runs the bit manifest
under two named kernels, and this test shows which kernel actually ran.
It finds numpy's OpenBLAS among the libraries that the process has
loaded (``/proc/self/maps``, so Linux only) and asks it for its core.
"""
import ctypes
import os

import numpy  # noqa: F401  (loads numpy's BLAS)

# The core-name getter of scipy-openblas (numpy >= 2 wheels), then the
# name that older numpy wheels' 64-bit OpenBLAS is expected to export.
CORENAME = ("scipy_openblas_get_corename64_", "openblas_get_corename64_")


def openblas_core():
    """The core that a loaded OpenBLAS reports, or None if none reports one."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps
                 if "openblas" in line.rsplit("/", 1)[-1].lower()}
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for name in CORENAME:
            get = getattr(library, name, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_char_p
                return get().decode()
    return None


def test_openblas_core_is_the_one_asked_for():
    core = openblas_core()
    print(f"OpenBLAS core: {core}")
    assert core is not None, "numpy's BLAS is not an OpenBLAS that reports its core"
    asked = os.environ.get("OPENBLAS_CORETYPE")
    if asked:
        assert core.lower() == asked.lower(), f"OPENBLAS_CORETYPE={asked}, but OpenBLAS runs {core}"
