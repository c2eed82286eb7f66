"""One deterministic hypothesis profile for the whole suite, so that a run
draws the same examples every time and CI does not flake."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
