"""Shared test configuration.

Property tests run under one derandomized hypothesis profile: the examples
are drawn from a fixed seed, so the suite is deterministic, and their number
and per-example deadline are bounded so it stays fast.
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "susyrad",
    derandomize=True,
    max_examples=60,
    deadline=2000,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("susyrad")
