import pytest

from wpbench.core import FinSet
from wpbench.semantics import BooleanTransformer
from wpbench.synthesis import synthesize


@pytest.fixture
def X1():
    return FinSet("X", ("x0",))


@pytest.fixture
def X2():
    return FinSet("X", ("x0", "x1"))


@pytest.fixture
def Y2():
    return FinSet("Y", ("y0", "y1"))


@pytest.fixture
def Y3():
    return FinSet("Y", ("y0", "y1", "y2"))


def _read_back(row, X, functionals):
    """Invert Boolean functionals on predicates over X through the shipped
    reader of a catalog row: ``synthesize(row, phi)`` for the transformer
    phi with one state per functional.  Returns the synthesis result,
    whose arrow holds one T-value per functional."""
    states = FinSet("T", tuple(range(len(functionals))))
    table = [
        sum(xi(lambda y: m >> X.index(y) & 1) << i for i, xi in enumerate(functionals))
        for m in range(1 << len(X))
    ]
    return synthesize(row, BooleanTransformer(X, states, table))


@pytest.fixture
def read_back():
    return _read_back
