"""Packaging for the ``repro`` library and its ``eric`` command.

``pip install -e .`` installs the ``repro`` package from ``src/`` and
the ``eric`` console script (every subcommand is documented in
``docs/cli.md``).  The library needs nothing beyond the standard
library; the test suite additionally needs pytest, pytest-benchmark and
hypothesis.  Where the ``wheel`` package is missing (offline machines),
PEP 660 editable installs cannot build; ``no-use-pep517 = true`` in the
pip config makes ``pip install -e .`` fall back to ``setup.py develop``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"$',
                    INIT.read_text(encoding="utf-8"), re.M).group(1)

setup(
    name="eric-repro",
    version=VERSION,
    description="ERIC: encrypted-program deployment with PUF-derived "
                "keys and a hardware decryption engine, reproduced in "
                "Python",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    entry_points={"console_scripts": ["eric = repro.cli:main"]},
)
