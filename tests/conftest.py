"""Shared test settings.

One derandomized hypothesis profile: every run draws the same examples,
in bounded numbers and time, and nothing is written to an example
database.
"""

from hypothesis import settings

settings.register_profile("h2xr", derandomize=True, database=None,
                          max_examples=100, deadline=2000)
settings.load_profile("h2xr")
