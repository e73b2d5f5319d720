"""Setuptools shim.

All metadata lives in pyproject.toml.  This file exists for the legacy
editable path, ``python setup.py develop``, which works offline in
environments that lack the ``wheel`` package (both pip's PEP 660 editable
build and ``pip install -e . --no-use-pep517`` need it).
"""

from setuptools import setup

setup()
