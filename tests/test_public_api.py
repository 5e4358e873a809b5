"""The package namespace is built from each module's ``__all__``."""

import inspect
import re

import pytest

import dqpt
from dqpt import criticality, mode_dynamics, model, observables

MODULES = (model, mode_dynamics, criticality, observables)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_each_public_function_or_class_is_defined_in_its_module(module):
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == module.__name__, name


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_each_public_constant_is_assigned_in_its_module(module):
    source = inspect.getsource(module)
    for name in module.__all__:
        obj = getattr(module, name)
        if not (inspect.isfunction(obj) or inspect.isclass(obj)):
            assert re.search(rf"^{name} = ", source, re.MULTILINE), name


def test_no_name_is_listed_by_two_modules():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))


def test_the_package_exports_the_union_of_the_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert dqpt.__all__ == ["__version__", *names]
    assert len(dqpt.__all__) == len(set(dqpt.__all__)) == 38
    for module in MODULES:
        for name in module.__all__:
            assert getattr(dqpt, name) is getattr(module, name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from dqpt import *", namespace)
    assert set(dqpt.__all__) <= namespace.keys()
    assert namespace["__version__"] == dqpt.__version__
