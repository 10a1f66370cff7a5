"""Legacy setup shim for offline editable installs (no wheel package)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Fence Scoping (S-Fence, SC'14) reproduction: scoped fences on an "
        "approximate multicore out-of-order timing simulator"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=[],
)
