"""Each public solve's docstring names exactly the error types of its stated
raise set (tests/raise_sets.py), and each error type has a raiser in the
package, so no deleted raiser leaves a dead type behind."""
import importlib
import inspect
import re
from pathlib import Path

import pytest

from capfolio import errors
from raise_sets import RAISES

ERROR_TYPES = [
    cls
    for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.CapfolioError) and cls is not errors.CapfolioError
]


@pytest.mark.parametrize("name", sorted(RAISES))
def test_docstring_names_exactly_the_raise_set(name):
    module, function = name.split(".")
    doc = getattr(importlib.import_module(f"capfolio.{module}"), function).__doc__
    named = {cls for cls in ERROR_TYPES if re.search(rf"\b{cls.__name__}\b", doc)}
    assert named == RAISES[name]


SOURCES = "".join(path.read_text() for path in Path(errors.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("cls", ERROR_TYPES, ids=lambda cls: cls.__name__)
def test_some_module_raises_the_type(cls):
    assert re.search(rf"\braise {cls.__name__}\(", SOURCES)
