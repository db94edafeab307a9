"""Build script for the optional compiled condensation kernel.

The package is fully functional as pure Python; the Cython extension only
accelerates the hot Pfaffian/nullity kernel. Without Cython the extension
is skipped with a note on stderr, and a failed extension build is
downgraded to a warning; either way the package installs with the
pure-Python kernel.
"""

import sys
import warnings

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    def run(self):
        try:
            super().run()
        except Exception as exc:
            warnings.warn(f"skipping compiled kernel: {exc}")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            warnings.warn(f"skipping compiled kernel {ext.name}: {exc}")


ext_modules = []
try:
    from Cython.Build import cythonize
except ImportError:
    print(
        "Cython is not installed: skipping the compiled kernel cauchon._kernel; "
        "the pure-Python kernel will be used",
        file=sys.stderr,
    )
else:
    ext_modules = cythonize(
        [
            Extension(
                "cauchon._kernel",
                ["src/cauchon/_kernel.pyx"],
                extra_compile_args=["-O3"],
            )
        ],
        compiler_directives={"language_level": "3"},
    )

setup(ext_modules=ext_modules, cmdclass={"build_ext": optional_build_ext})
