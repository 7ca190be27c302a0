"""Shared exception types, mapped to CLI exit codes in cli.py."""

from __future__ import annotations


class OrbitlabError(Exception):
    """Base class for package errors."""


class ConfigError(OrbitlabError):
    """Invalid configuration: unknown keys, bad values, missing files."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class CapacityError(OrbitlabError):
    """An enumeration would exceed the configured element capacity."""


class DivergenceError(OrbitlabError):
    """A numeric limit failed to converge within its ladder."""


class DegenerateSpanError(OrbitlabError):
    """A log-log fit was requested on a ladder with too little span."""


class InvariantError(OrbitlabError):
    """A computed result broke an exact invariant (a determinant, a gcd):
    a defect in the package, never a configuration problem."""
