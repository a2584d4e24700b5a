"""Shared pytest setup: one fixed hypothesis profile, so runs repeat exactly."""

from hypothesis import settings

settings.register_profile("bladekit", derandomize=True, deadline=None,
                          max_examples=40, database=None)
settings.load_profile("bladekit")
