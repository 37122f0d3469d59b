"""Suite-wide test configuration.

The property tests draw fresh examples on every run (``database=None``, no
fixed seed), so a failure may not recur.  This profile makes such a failure
print its ``@reproduce_failure`` blob, which replays the failing example.
Run ``pytest --hypothesis-seed=N`` to repeat a whole run's draws.
"""

from hypothesis import settings

settings.register_profile("unruh-lab", print_blob=True)
settings.load_profile("unruh-lab")
