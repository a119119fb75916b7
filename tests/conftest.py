"""Settings shared by the test suite: every hypothesis test draws the same
examples on every run (derandomized, no example database) and has no
per-example deadline; a test sets only its example count."""

from hypothesis import settings

settings.register_profile("laycon", derandomize=True, database=None, deadline=None)
settings.load_profile("laycon")
