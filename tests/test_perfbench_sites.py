"""Every call site the benchmark's tracer patches must resolve.

``perfbench/spans.py`` records layer spans by swapping module attributes
and class methods, by name, for recording wrappers.  A name that
disappears from its module — say an import that a refactor left unused
and then deleted — makes ``perfbench/run.py --trace 1`` fail with an
``AttributeError``, so each one is pinned here.
"""

import importlib

import pytest

from perfbench import spans


@pytest.mark.parametrize(
    "module, attr",
    [(site[0], site[1]) for site in spans.MODULE_SITES],
    ids=[f"{site[0]}.{site[1]}" for site in spans.MODULE_SITES],
)
def test_module_site_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_class_sites_resolve():
    for cls, attr, _, _ in spans._class_sites():
        # instrument() reads the class __dict__, not inherited attributes.
        assert callable(cls.__dict__[attr]), f"{cls.__name__}.{attr}"


def test_instrument_installs_and_restores():
    before = {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _, _ in spans.MODULE_SITES
    }
    with spans.instrument(spans.Tracer()):
        for (module, attr), orig in before.items():
            wrapped = getattr(importlib.import_module(module), attr)
            assert wrapped.__wrapped__ is orig
    for (module, attr), orig in before.items():
        assert getattr(importlib.import_module(module), attr) is orig
