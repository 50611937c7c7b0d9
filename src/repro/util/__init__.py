"""Shared utilities: deterministic randomness, simulated time, text
helpers, crash-atomic file writes, job-count validation."""
