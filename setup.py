"""Setuptools shim for environments without PEP 517 wheel support."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.2.0",
    description=(
        "Python reproduction of FIDESlib: a fully-fledged CKKS FHE library "
        "with a GPU execution-model backend (ISPASS 2025)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # The word kernel's C source (products, dot products, the NTT),
    # compiled on first use.
    package_data={"repro.core": ["word_kernel.c"]},
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
)
