"""Test-session settings shared by every test module."""

from hypothesis import settings

# CI keeps no example database, so a property test that fails there can only
# be replayed from its log: print the @reproduce_failure line with the failure.
# Every other setting stays at Hypothesis's default or the test's own.
settings.register_profile("vrec", print_blob=True)
settings.load_profile("vrec")
