import pytest

from aisles.derived import Window
from aisles.kronecker import TameModel
from aisles.quiver import BUILTIN_QUIVERS, linear_quiver
from aisles.repcore import enumerate_indecomposables
from reference import default_model


@pytest.fixture(scope="session")
def a2_table():
    return enumerate_indecomposables(linear_quiver(2))


@pytest.fixture(scope="session")
def a3_table():
    return enumerate_indecomposables(linear_quiver(3))


@pytest.fixture(scope="session")
def d4_table():
    return enumerate_indecomposables(BUILTIN_QUIVERS["d4"]())


@pytest.fixture(scope="session")
def window():
    return Window(-2, 3)


@pytest.fixture(scope="session")
def tame_model():
    return default_model()


@pytest.fixture(scope="session")
def tame_models(tame_model):
    """The default Kronecker model and a 4-tube one of depth 4 and
    transjective range 10."""
    return (tame_model, TameModel(("t0", "t1", "t2", "t3"), 4, 10, Window(-2, 3)))
