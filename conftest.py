"""Allow running pytest from a fresh checkout without installing the package."""

import sys
import warnings
from contextlib import suppress
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent / "src"))

pytest_plugins = ["pytester"]

# When a @given test fails, hypothesis's pytest plugin imports this module to
# suggest a patch.  It imports libcst, which raises a DeprecationWarning that
# `filterwarnings = error` turns into an INTERNALERROR ending the session, so
# no later test would run.  Imported once here, with that category ignored,
# the failure is reported as a failure.  Without libcst the plugin skips it.
with warnings.catch_warnings(), suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
