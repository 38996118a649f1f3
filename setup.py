"""Packaging for the VersaSlot reproduction.

The package imports only the Python standard library; ``repro[test]``
adds the test runner.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.6.0",
    description=(
        "Discrete-event reproduction of VersaSlot (DAC 2025): "
        "spatio-temporal FPGA sharing with Big.Little slots"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=[],
    extras_require={"test": ["pytest", "hypothesis"]},
)
