"""Fixtures shared by the test modules."""

import pytest

from relshift import checks


@pytest.fixture
def builds(monkeypatch):
    """Counts of the enumeration and congruence builds in ``checks``."""
    counts = dict.fromkeys(("_subalgebras", "all_congruences"), 0)
    for name in counts:

        def counted(*args, _name=name, _real=getattr(checks, name), **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(checks, name, counted)
    return counts
