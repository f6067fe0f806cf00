import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import pytest

from k3lat.char2_surfaces.field import BinaryField
from k3lat.configuration import L_LABELS
from k3lat.ns_glue import build_lambda, build_overlattice, halfline_class


@pytest.fixture(scope="module")
def gf16():
    return BinaryField(4)


@pytest.fixture(scope="module")
def gf256():
    return BinaryField(8)


@pytest.fixture(scope="module")
def gf65536():
    # GF(2^16) is the largest field BinaryField accepts; a q^2 scan of it takes hours
    return BinaryField(16, 0x1002D)


@pytest.fixture(scope="module")
def ls():
    """The base lattice <2> + 4D4 + 5A1, with its summands labeled."""
    return build_lambda()


@pytest.fixture(scope="module")
def ns(ls):
    """The sigma = 2 overlattice: the base glued along the five half-line classes."""
    return build_overlattice(ls, tuple(halfline_class(ls, lam) for lam in L_LABELS))
