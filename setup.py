"""Build script: the package is pure Python, so the build byte-compiles it.

``python setup.py build_ext --inplace`` builds no extension. It writes the
bytecode of every module of ``src/cauchon`` into its ``__pycache__``, so a
later ``python -m cauchon.cli`` call loads bytecode instead of compiling
the source, even under ``PYTHONDONTWRITEBYTECODE``. Python checks each
``.pyc`` against its source, so an edit after the build still runs. A
module that does not compile fails the build. perfbench's set-up runs this
command on a fresh copy of the checkout, which holds no ``.pyc``.
"""

import compileall
import sys
from pathlib import Path

from setuptools import setup
from setuptools.command.build_ext import build_ext

PACKAGE = Path(__file__).resolve().parent / "src" / "cauchon"


class build_ext_bytecode(build_ext):
    def run(self):
        super().run()
        if self.inplace and not compileall.compile_dir(PACKAGE, quiet=1):
            sys.exit(f"error: a module of {PACKAGE} does not compile")


setup(cmdclass={"build_ext": build_ext_bytecode})
