"""One hypothesis profile for every run: a property test draws the same
examples each time, so tier-1 repeats itself in what it checks and in
how long it takes.  Nothing switches it off."""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")
