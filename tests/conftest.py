from hypothesis import configuration


def pytest_configure(config):
    # Even without an example database, Hypothesis caches the constants it
    # reads from the source under its home directory (./.hypothesis by
    # default); keep that inside pytest's own cache directory.
    if hasattr(config, "cache"):
        configuration.set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))
