"""The package exports only what README documents."""

import importlib
import inspect
import pkgutil
import re
import typing
from pathlib import Path

import quatu11

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_is_documented():
    text = README.read_text(encoding="utf-8")
    code = " ".join(re.findall(r"```.*?```|`[^`\n]+`", text, re.S))
    missing = [name for name in quatu11.__all__
               if not re.search(rf"(?<![\w.]){re.escape(name)}\b", code)]
    assert missing == []


def _functions(module):
    """Every function and method the module defines, with its name."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)  # class/static
                member = getattr(member, "fget", member)  # property
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def test_every_annotation_names_a_defined_name():
    # typing.get_type_hints evaluates each postponed annotation in its
    # module: a name the module does not bind raises NameError
    failed = []
    for info in pkgutil.iter_modules(quatu11.__path__):
        module = importlib.import_module(f"quatu11.{info.name}")
        for name, fn in _functions(module):
            try:
                typing.get_type_hints(fn)
            except NameError as exc:
                failed.append(f"{info.name}.{name}: {exc}")
    assert failed == []
