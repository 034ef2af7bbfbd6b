"""Suite-wide hypothesis settings.

Every property test searches derandomized: its examples come from a seed
derived from the test itself, and no example database is read, so each run
of the suite checks the same instances and a failure replays on any checkout.
A test's own ``@settings`` still sets its ``max_examples`` and ``deadline``.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
