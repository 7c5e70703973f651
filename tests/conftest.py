"""Shared test settings."""

from hypothesis import settings

# The longer run of the certifier lifecycle machine, selected with
# ``--hypothesis-profile=lifecycle`` (tests/core/test_certify_lifecycle.py).
settings.register_profile(
    "lifecycle", max_examples=1500, stateful_step_count=40, deadline=None
)
