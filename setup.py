"""Setuptools packaging.

The offline environment ships setuptools 65 without the ``wheel`` package, so
PEP 660 editable installs (which need ``bdist_wheel``) are unavailable. With
only this ``setup.py`` (no ``pyproject.toml``), ``pip install -e .`` takes the
legacy ``setup.py develop`` path, which works with plain setuptools.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "FastFT: Accelerating Reinforced Feature Transformation via Advanced "
        "Exploration Strategies (ICDE 2025) — full reproduction"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy>=1.24", "scipy>=1.10"],
    extras_require={"dev": ["pytest", "pytest-benchmark", "hypothesis"]},
)
