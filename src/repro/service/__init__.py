"""The check service: admission control in front of two transports.

Import the public names from :mod:`repro.api`; this package is the
implementation. See DESIGN.md §6 for the architecture.
"""
