"""The test session's own settings: a failing property test is reported as a
failure, and the tests after it still run."""

import pytest

pytest_plugins = ["pytester"]

TWO_TESTS = """
from hypothesis import given, settings, strategies as st

@settings(database=None)
@given(st.just(0))
def test_fails(x):
    assert x < 0

def test_passes():
    pass
"""


def test_failing_property_test_does_not_stop_the_session(pytester, request):
    # hypothesis's failure report touches mypy_extensions.TypedDict, whose
    # DeprecationWarning the "error" filter would turn into an INTERNALERROR
    pytest.importorskip("mypy_extensions")
    filters = "\n".join(f"    {line}" for line in request.config.getini("filterwarnings"))
    pytester.makeini(f"[pytest]\nfilterwarnings =\n{filters}\n")
    pytester.makepyfile(TWO_TESTS)
    result = pytester.runpytest("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str()
