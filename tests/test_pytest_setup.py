"""The repository's pytest setup: its conftest.py under its pyproject.toml settings."""

from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_a_failing_property_test_is_reported_and_later_tests_run(pytester):
    # the repository's own settings (filterwarnings = error) and conftest.py,
    # in a fresh interpreter, so no module the suite imported is imported yet
    pytester.makepyprojecttoml((ROOT / "pyproject.toml").read_text())
    pytester.makeconftest((ROOT / "conftest.py").read_text())
    pytester.makepyfile(
        test_property="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_runs_after_it():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", "test_property.py")
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.assert_outcomes(failed=1, passed=1)
