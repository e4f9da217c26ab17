import pytest

from ppforge import build_field, ffcore


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


@pytest.fixture
def log_providers(monkeypatch):
    """copies(f) yields fresh copies of the field f: the first with the log
    provider that FieldSpec.logs() builds for f, with the flat Zech table
    on an extension field up to TABLE_LIMIT, the second with
    TABLE_LIMIT = 0, where every field computes each Zech logarithm from
    the O(q) lists.  logs() builds once per field, hence the copies; a
    polynomial on f evaluates on either."""
    def copies(f):
        for limit in (ffcore.TABLE_LIMIT, 0):
            copy = ffcore.FieldSpec(f.p, f.h, f.modulus, f.generator.coeffs)
            with monkeypatch.context() as patch:
                patch.setattr(ffcore, "TABLE_LIMIT", limit)
                copy.logs()
            yield copy
    return copies
