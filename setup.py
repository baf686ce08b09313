"""Setup shim: enables legacy editable installs in offline environments
where the ``wheel`` package (required by PEP 660 editable builds) is
unavailable.  All metadata lives in pyproject.toml, the one runtime
dependency (numpy) included: a second ``install_requires`` here would
only be overridden by it, with a warning.
"""

from setuptools import setup

setup()
