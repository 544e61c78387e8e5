"""Build script: compiles the optional search kernel extension.

The package is fully functional without the extension (a pure-Python twin
of the kernel is selected at import time), so the build must not fail on
machines without a C toolchain.  The extension is one hand-written C
source; building it needs no Cython:

    python3 setup.py build_ext --inplace
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "domchrom._kernel_c",
            ["src/domchrom/_kernel_c.c"],
            optional=True,
        )
    ]
)
