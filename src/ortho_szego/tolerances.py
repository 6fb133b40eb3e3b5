"""Default tolerance of each `verify` suite.

Kept apart from `suites` so that the CLI can list the suite names and
their defaults without importing the suites themselves.
"""

DEFAULT_TOLS = {
    "roundtrip": 1e-11,
    "rel": 1e-10,
    "bridge": 1e-8,
    "transfer": 1e-8,
    "conjugation": 1e-8,
    "theorems": 1e-10,
    "lu": 1e-11,
    "discrepancy": 1e-11,
}
