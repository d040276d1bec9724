"""Hypothesis profiles. CI runs `pytest --hypothesis-profile=ci`: property
tests draw the same examples on every run, with no per-example deadline."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
