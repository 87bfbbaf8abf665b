"""The test session's own settings: a failing test is reported as one."""

import tomllib
from pathlib import Path

pytest_plugins = ["pytester"]


def test_a_failing_property_test_hides_no_other_result(pytester):
    # with the session's warning filters, as pyproject.toml sets them, a
    # failing Hypothesis test is one failure beside the passing test;
    # Hypothesis's failure report warns inside pluggy, which, were that
    # warning an error, would end the session in INTERNALERROR
    config = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    filters = config["tool"]["pytest"]["ini_options"]["filterwarnings"]
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters))
    pytester.makepyfile(test_pair="""
        from hypothesis import given, settings, strategies as st

        @settings(database=None)
        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
    """)
    result = pytester.runpytest("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str()
