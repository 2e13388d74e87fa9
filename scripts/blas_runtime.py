"""Print the core name and thread count of each OpenBLAS numpy and scipy bundle.

The pinned output digests hold on the kernels OpenBLAS picks for one CPU
family, so a test log that names them tells a digest failure caused by a
different kernel apart from one caused by a code change.  A library or
symbol that cannot be found prints "not found" and the script still exits 0.

    python scripts/blas_runtime.py
"""

import ctypes
import glob
import importlib
import os

# (package, module that loads its OpenBLAS, library file pattern in the
# package's wheel-bundled ``<package>.libs``, core-name and thread-count
# symbols)
LIBRARIES = (
    ("numpy", "numpy", "libscipy_openblas64_*.so*",
     "scipy_openblas_get_corename64_", "scipy_openblas_get_num_threads64_"),
    ("scipy", "scipy.linalg", "libscipy_openblas-*.so*",
     "scipy_openblas_get_corename", "scipy_openblas_get_num_threads"),
)


def describe(package: str, loader: str, pattern: str, corename: str,
             threads: str) -> str:
    """One line naming ``package``'s OpenBLAS, its core and thread count."""
    try:
        importlib.import_module(loader)
        module = importlib.import_module(package)
    except ImportError:
        return f"{package}: not found"
    site = os.path.dirname(os.path.dirname(os.path.abspath(module.__file__)))
    paths = sorted(glob.glob(os.path.join(site, f"{package}.libs", pattern)))
    if not paths:
        return f"{package}: not found"
    name = os.path.basename(paths[0])
    try:
        library = ctypes.CDLL(paths[0])
        get_core, get_threads = (getattr(library, corename),
                                 getattr(library, threads))
    except (OSError, AttributeError):
        return f"{package}: {name}: not found"
    get_core.restype = ctypes.c_char_p
    get_threads.restype = ctypes.c_int
    return (f"{package}: {name}: core {get_core().decode()}, "
            f"{get_threads()} thread(s)")


def main() -> None:
    for entry in LIBRARIES:
        print(describe(*entry))


if __name__ == "__main__":
    main()
