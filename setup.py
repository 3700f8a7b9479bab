"""Package metadata for the ``repro`` ESTIMA reproduction.

Installing puts the ``src/`` layout's ``repro`` package on the path and
creates the ``estima`` console script (``estima ...`` is
``python -m repro.cli ...``).  With the ``wheel`` package available,
``pip install -e .`` does an editable install.  Without it (pip then refuses
both its PEP 517 and its legacy path), ``python setup.py develop --no-deps``
does the same from an offline checkout.
"""

from setuptools import find_packages, setup

setup(
    name="estima-repro",
    version="0.1.0",
    description="Reproduction of ESTIMA: extrapolating scalability of in-memory applications",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
    entry_points={"console_scripts": ["estima=repro.cli:main"]},
)
