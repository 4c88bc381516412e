"""Shared test configuration.

Hypothesis checks its own timing by default: a per-example deadline and a
health check on slow input generation.  Host speed can drift 2x on a shared
machine, so those checks fail on timing alone; every property test here runs
without them.
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "fieldcast", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("fieldcast")
