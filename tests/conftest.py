"""Hypothesis draws each ``@given`` test's examples from a seed fixed by the
test itself, so a failure found on one machine replays on every other."""

from hypothesis import settings

settings.register_profile("replayable", derandomize=True)
settings.load_profile("replayable")
