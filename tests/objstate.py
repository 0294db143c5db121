"""Compare object graphs by value: a reused object against a fresh one.

:func:`object_state` turns an object and everything it reaches through
``vars()`` and ``__slots__`` into plain nested data, so two graphs built
the same way compare equal with ``==`` exactly when every field of every
object matches. Shared and cyclic references are kept as references: the
first visit of an object numbers it, later visits yield that number, so
two graphs also have to share objects in the same pattern.
"""

from __future__ import annotations

import random
import types
from collections.abc import Mapping
from typing import Any, Dict

__all__ = ["object_state"]

_SCALARS = (str, bytes, int, float, bool, type(None), frozenset, type)


def object_state(value: Any, rng_states: bool = True) -> Any:
    """``value``'s object graph as comparable plain data.

    ``rng_states`` compares :class:`random.Random` objects by
    ``getstate()``; when False they are left out (a reset keeps its
    stream, and the owner reseeds it).
    """
    return _state(value, {}, rng_states)


def _state(value: Any, seen: Dict[int, int], rng_states: bool) -> Any:
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, random.Random):
        return ("Random", value.getstate() if rng_states else None)
    if isinstance(value, bytearray):
        return ("bytearray", bytes(value))
    if isinstance(value, (types.FunctionType, types.BuiltinFunctionType)):
        return ("function", value.__qualname__)
    ref = seen.get(id(value))
    if ref is not None:
        return ("ref", ref)
    seen[id(value)] = len(seen)
    if isinstance(value, types.MethodType):
        return ("method", value.__func__.__qualname__, _state(value.__self__, seen, rng_states))
    if isinstance(value, Mapping):
        return (
            type(value).__name__,
            [(key, _state(item, seen, rng_states)) for key, item in value.items()],
        )
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [_state(item, seen, rng_states) for item in value])
    if isinstance(value, set):
        return ("set", sorted(value))
    fields: Dict[str, Any] = {}
    for klass in type(value).__mro__:
        slots = vars(klass).get("__slots__", ())
        for slot in (slots,) if isinstance(slots, str) else slots:
            if hasattr(value, slot):
                fields[slot] = getattr(value, slot)
    fields.update(getattr(value, "__dict__", {}))
    return (
        type(value).__name__,
        {name: _state(item, seen, rng_states) for name, item in sorted(fields.items())},
    )
