from hypothesis import settings

# property tests draw the same examples on every run, so a failure reproduces
settings.register_profile("rotolock", derandomize=True)
settings.load_profile("rotolock")
