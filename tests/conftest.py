import sys
from pathlib import Path

import pytest

from qcmine.nn_core import blas_thread_control

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def blas_two_threads():
    """The BLAS thread count's getter, with the count set to 2 for the test
    so that a count left at 1 shows."""
    control = blas_thread_control()
    if control is None:
        pytest.skip("numpy links no OpenBLAS whose thread count can be set")
    get, set_ = control
    before = get()
    set_(2)
    yield get
    set_(before)
