"""The test session's own settings and tools: a failing test is reported
as one, and every committed mutant still applies."""

import tomllib
from pathlib import Path

import mutants
import pytest

pytest_plugins = ["pytester"]
ROOT = Path(__file__).parents[1]


def test_a_failing_property_test_hides_no_other_result(pytester):
    # with the session's warning filters, as pyproject.toml sets them, a
    # failing Hypothesis test is one failure beside the passing test;
    # Hypothesis's failure report warns inside pluggy, which, were that
    # warning an error, would end the session in INTERNALERROR
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
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


@pytest.mark.parametrize("label, path, old, new, files", mutants.MUTANTS,
                         ids=[label for label, *_ in mutants.MUTANTS])
def test_each_mutant_still_applies(label, path, old, new, files):
    # what ``python tests/mutants.py`` needs of each mutant before it runs
    # one: a refactor that moves its text orphans it
    assert (ROOT / path).read_text().count(old) == 1
    assert new != old
    assert files and all((ROOT / f).is_file() for f in files)
