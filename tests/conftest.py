import os

import pytest

import icstalks


@pytest.fixture
def child_env():
    """Environment for a child Python that imports the same icstalks package.

    The package directory goes on PYTHONPATH, also when pytest's
    ``pythonpath`` setting put it on sys.path instead.
    """
    src = os.path.dirname(os.path.dirname(icstalks.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}
