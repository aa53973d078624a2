"""Tier-1 runs the same property-test examples on every run: each test's
examples are derived from the test itself, not drawn at random, and none is
replayed from a local example database, so a pass or a failure repeats."""

try:
    from hypothesis import settings
except ImportError:  # only the property tests need hypothesis
    settings = None

if settings is not None:
    settings.register_profile("tier1", derandomize=True, database=None)
    settings.load_profile("tier1")
