import pytest

from fracweyl.halfline import FractionalOrder, HalfLineModel


@pytest.fixture(scope="session")
def model_half():
    return HalfLineModel(FractionalOrder(0.5, 2))
