"""JSON text for the CLI: the bytes of ``json.dumps(value, indent=...)``, built faster
and written a piece at a time.

With an indent, ``json.dumps`` runs the pure-Python encoder, which yields one
token at a time through nested generators.  ``dumps`` builds the same text by
recursion over dicts, lists, strings, ints, bools and None, quoting strings
with the encoder's own C routine.  Each container's text is one join of its
parts, so a large value is copied once per nesting level, not once per
concatenation; a list of strings (a row of matrix cells) is quoted by one
``map`` with no recursive call per item.  A value of any other type (or a
dict key that is not a string) sends the whole value to the stock encoder,
so the output is always what the stock encoder gives.

``write`` prints a document whose members may be iterators of item texts,
from ``item`` or a ``template``: the items are written as they come, so the
whole document is never held.
"""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii as quote

_UNIT = "  "  # the CLI's indent=2
# What opens each line of an item of an iterator member: two levels deep.
ITEM = "\n" + 2 * _UNIT
# A value that ``template`` makes a %s slot.
SLOT = "\x00"
_PIECE = 1 << 20  # characters of items written at once


def _text(value: object, newline: str, unit: str) -> str:
    """``value`` as JSON, its inner lines opened by ``newline`` plus ``unit``."""
    if isinstance(value, str):
        return quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + unit
    sep = "," + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        try:  # a list of strings, quoted by one map
            return f"[{inner}{sep.join(map(quote, value))}{newline}]"
        except TypeError:  # quote met an item that is not a string
            pass
        parts = ["[", inner]
        for item in value:
            parts += (_text(item, inner, unit), sep)
        parts[-1] = newline + "]"
        return "".join(parts)
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = ["{", inner]
        for key, item in value.items():
            # quote raises TypeError for a key that is not a string
            parts += (quote(key), ": ", _text(item, inner, unit), sep)
        parts[-1] = newline + "}"
        return "".join(parts)
    raise TypeError(f"{type(value).__name__} is left to the stock encoder")


def _render(value: object, newline: str, indent: int) -> str:
    try:
        return _text(value, newline, " " * indent)
    except TypeError:  # the stock encoder's text, or its TypeError for an unencodable value
        return json.dumps(value, indent=indent).replace("\n", newline)


def dumps(value: object, indent: int = 2) -> str:
    """``json.dumps(value, indent=indent)``."""
    return _render(value, "\n", indent)


def item(value: object) -> str:
    """``value`` as an item of an iterator member of a ``write`` document."""
    return _render(value, ITEM, len(_UNIT))


def template(shape: object) -> str:
    """``item(shape)`` as a %-template: each SLOT value is a %s, to be filled with JSON text."""
    return item(shape).replace("%", "%%").replace(quote(SLOT), "%s")


def write(payload: dict) -> None:
    """Write ``json.dumps(payload, indent=2)`` and a newline to ``sys.stdout``.

    A member may be an iterator of item texts, from ``item`` or a
    ``template``; it is written as a list, as its items come, and the
    document's keys must then be strings.  ``sys.stdout`` is read at each
    call, so a redirected stdout gets the text.
    """
    stdout = sys.stdout
    if not any(hasattr(value, "__next__") for value in payload.values()):
        stdout.write(dumps(payload) + "\n")
        return
    sep = "," + ITEM
    text = "{"  # held until the next item is written, or the end
    for key, value in payload.items():
        text += f"\n{_UNIT}{quote(key)}: "
        if not hasattr(value, "__next__"):
            text += _render(value, "\n" + _UNIT, len(_UNIT)) + ","
            continue
        first = next(value, None)
        if first is None:
            text += "[],"
            continue
        stdout.write(f"{text}[{ITEM}")
        # Items go out joined into pieces of about _PIECE characters, so at
        # most one piece and one item are held, and a reader draining a pipe
        # gets nearly the full reads of one whole write.  Written an item at
        # a time (8 KiB flushes), the default verify report left a
        # subprocess.run reader about 6 MB more max RSS than one whole write did.
        pending, size = [first], len(first)
        for item_text in value:
            if size >= _PIECE:
                stdout.write(sep.join(pending) + sep)
                pending, size = [], 0
            pending.append(item_text)
            size += len(item_text)
        text = sep.join(pending) + f"\n{_UNIT}],"
    stdout.write(text[:-1] + "\n}\n")
