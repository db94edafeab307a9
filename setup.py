"""Build script: the package is pure Python and builds no extension.

It stays only because perfbench's set-up step runs
``python setup.py build_ext --inplace``, which must keep exiting 0.
"""

from setuptools import setup

setup()
