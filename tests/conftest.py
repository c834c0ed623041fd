import numpy as np
import pytest

from csym.electron import build_gamma4
from csym.exact import ExactComplex, ExactMatrix
from csym.gamma import build_gamma_set
from csym.photon import build_gamma8


@pytest.fixture(scope="session")
def gamma8():
    return build_gamma8()


@pytest.fixture(scope="session")
def gamma4():
    return build_gamma4()


@pytest.fixture(scope="session")
def corrupt_gamma():
    """Verify a built set again with entry (i, j) of one matrix lowered by 1."""
    def corrupt(gs, spec, name, i, j):
        mats = {n: getattr(gs, n) for n in ("g0", "g1", "g2", "g3", "g5")}
        m = mats[name]
        entries = list(m.entries)
        entries[i * m.cols + j] = entries[i * m.cols + j] - ExactComplex(1)
        mats[name] = ExactMatrix(m.rows, m.cols, entries)
        return build_gamma_set(spec, mats)
    return corrupt


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
