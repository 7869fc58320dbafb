"""Session set-up shared by every test module.

Hypothesis's pytest plugin imports `hypothesis.extra._patching` when it
reports a failing test; that module imports libcst, whose TypedDict
classes raise a DeprecationWarning at import time.  Under
`python -W error -m pytest` the warning would turn the report into an
INTERNALERROR that hides the failure and its falsifying example, so the
module is imported here once with that warning ignored.  Every other
warning stays an error.  Without libcst the import fails and the plugin
reports without it.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
