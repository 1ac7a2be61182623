from hypothesis import settings

# Fixed examples, no timing limit and no example database: property tests
# draw the same inputs on every run, so the suite stays deterministic.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
