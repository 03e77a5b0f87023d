import os
from unittest import mock

import pytest


@pytest.fixture(autouse=True)
def _environment_restored():
    """Undo a test's changes to os.environ: an in-process sample or compare sets the BLAS thread variables."""
    with mock.patch.dict(os.environ):
        yield
