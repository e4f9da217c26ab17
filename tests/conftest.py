import pytest

from ppforge import build_field


@pytest.fixture(scope="session")
def field_q5():
    return build_field(5, 1)


@pytest.fixture(scope="session")
def field_q7():
    return build_field(7, 1)


@pytest.fixture(scope="session")
def field_q9():
    return build_field(3, 2)


@pytest.fixture(scope="session")
def field_q11():
    return build_field(11, 1)


@pytest.fixture(scope="session")
def field_q13():
    return build_field(13, 1)


@pytest.fixture(scope="session")
def field_q19():
    return build_field(19, 1)


@pytest.fixture(scope="session")
def field_q25():
    return build_field(5, 2)


@pytest.fixture(scope="session")
def field_q29():
    return build_field(29, 1)
