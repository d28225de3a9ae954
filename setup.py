"""Packaging for the SysScale reproduction.

There is no ``pyproject.toml`` in this repository (offline environments without
the ``wheel``/``build`` packages still need ``pip install -e .`` to work), so
all metadata lives here: the full ``src/repro`` package tree and the ``repro``
console script that fronts the ``repro.cli`` command line (``python -m repro``
runs the same ``main``).
"""

from setuptools import find_packages, setup

setup(
    name="repro-sysscale",
    version="1.4.0",
    description=(
        "Trace-driven reproduction of SysScale (Haj-Yahya et al., ISCA 2020): "
        "multi-domain DVFS for energy-efficient mobile SoCs, with a parallel, "
        "content-addressed experiment runtime"
    ),
    packages=find_packages(where="src"),
    package_dir={"": "src"},
    python_requires=">=3.9",
    install_requires=["numpy"],
    entry_points={
        "console_scripts": [
            "repro = repro.cli:main",
        ]
    },
)
