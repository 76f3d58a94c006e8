"""Test-wide hypothesis settings.

One profile, loaded for every test here: a property test is derandomized
(its examples are seeded from its own source, so every run draws the
same ones) and has no deadline, unless its own ``@settings`` say otherwise.
"""
from hypothesis import settings

settings.register_profile("deplog", derandomize=True, deadline=None)
settings.load_profile("deplog")
