"""Setuptools entry point.

Kept as an executable ``setup.py`` (rather than pyproject-only metadata) so
that ``pip install -e .`` works in offline environments whose setuptools
lacks the PEP 660 editable-wheel path (no ``wheel`` package available).

The library needs numpy and scipy at runtime.  The frozen kernels of the
dispatch engine (:mod:`repro.engine`) use scipy's sparse and csgraph
modules, which are imported on first use, never at package import::

    pip install -e .
"""

from setuptools import find_packages, setup

setup(
    name="repro-san",
    version="0.2.0",
    description=(
        "Social-Attribute Network measurement and modeling — a reproduction "
        "of Gong et al., IMC 2012 (Google+), with a CSR-backed frozen graph "
        "engine and backend-dispatched vectorized kernels"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
    entry_points={"console_scripts": ["repro=repro.cli:main"]},
)
