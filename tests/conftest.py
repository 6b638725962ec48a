"""Fixtures shared by several test modules."""

from fractions import Fraction

import pytest


@pytest.fixture
def fraction_calls(monkeypatch) -> list:
    """The argument tuples of every ``Fraction(...)`` built while the test runs."""
    calls = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    return calls
