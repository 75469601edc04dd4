"""A repository-wide hang guard for machines without pytest-timeout.

``pyproject.toml`` sets ``timeout = 300`` for pytest-timeout, which CI
installs. Where the plugin is missing, this file registers the
``timeout`` key, so pytest does not warn about an unknown option, and
enforces it with :func:`faulthandler.dump_traceback_later`. It sits at
the root of the checkout so that every suite run from there loads it:
``tests/``, ``servebench/tests`` and ``benchmarks/`` alike. A test that
runs past the ceiling (a deadlocked socket or thread, say) dumps every
thread's stack to stderr and ends the run with a failing status instead
of stalling it. With the plugin installed, nothing here is active.
"""

import faulthandler
import os
import sys

import pytest

_GUARD_FD = pytest.StashKey[int]()


def _plugin_absent(pluginmanager):
    return not pluginmanager.hasplugin("timeout")


def pytest_addoption(parser, pluginmanager):
    if _plugin_absent(pluginmanager):
        parser.addini(
            "timeout",
            "per-test hang ceiling in seconds, enforced by a faulthandler "
            "fallback while pytest-timeout is not installed",
            default="0",
        )


def pytest_configure(config):
    if _plugin_absent(config.pluginmanager) and float(config.getini("timeout")) > 0:
        # a copy of stderr taken before any test captures it, so the
        # dumped stacks reach the terminal
        config.stash[_GUARD_FD] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    if _GUARD_FD in config.stash:
        os.close(config.stash[_GUARD_FD])
        del config.stash[_GUARD_FD]


@pytest.hookimpl(wrapper=True)
def pytest_runtest_protocol(item):
    if _GUARD_FD not in item.config.stash:
        return (yield)
    seconds = float(item.config.getini("timeout"))
    faulthandler.dump_traceback_later(seconds, exit=True, file=item.config.stash[_GUARD_FD])
    try:
        return (yield)
    finally:
        faulthandler.cancel_dump_traceback_later()
