"""Shared test settings: hypothesis runs derandomized and without a
per-example deadline, so property tests give the same verdict on every run
and do not flake on a loaded machine."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
