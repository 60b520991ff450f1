"""Shared pytest hooks and fixtures.

After the run, print the acceptance-criteria ledger collected by
tests/test_acceptance.py: one PASS/FAIL line per numbered criterion.
"""

from __future__ import annotations

import sys

import pytest


@pytest.fixture
def check_calls(monkeypatch):
    """The name of every verify check function that runs, read through the
    module globals that ``verify._CHECKS`` looks up on every call."""
    from kbessel import verify

    calls = []
    for name in verify.__all__:
        if name.startswith("check_"):
            def spy(*args, _name=name, _check=getattr(verify, name), **kwargs):
                calls.append(_name)
                return _check(*args, **kwargs)
            monkeypatch.setattr(verify, name, spy)
    return calls


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    module = sys.modules.get("test_acceptance")
    results = getattr(module, "RESULTS", None) if module else None
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(results):
        label, ok, detail = results[num]
        line = f"[{num:2d}] {label} ... {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)
