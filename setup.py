"""Setuptools entry point for the ``repro`` package.

The package lives under ``src/``.  ``numpy`` and ``scipy`` are hard
dependencies: :mod:`repro.widths.edge_cover` imports both at module top, and
``import repro`` imports it.  ``pip install -e .`` installs the package with
them; the test tools (pytest, hypothesis, pytest-benchmark) are installed
separately.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Reproduction of 'The Complexity of Conjunctive Queries with Degree 2'"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
)
