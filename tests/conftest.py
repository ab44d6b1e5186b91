"""One hypothesis profile for every property test: derandomized, with no
deadline and no example database, so each run draws the same examples on
any machine.  A test's own ``@settings`` sets only ``max_examples``."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")
