"""Hypothesis profiles for the test suite.

`ci` draws 1,000 examples for every property test that does not set its
own count; select it with HYPOTHESIS_PROFILE=ci. Without the variable,
Hypothesis's own default profile applies.
"""

import os

from hypothesis import settings

settings.register_profile("ci", max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
