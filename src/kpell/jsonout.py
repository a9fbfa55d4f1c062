"""JSON text for the CLI: the bytes of ``json.dumps(value, indent=2)``, written a
piece at a time.

Every value is encoded by the stock encoder, ``json.dumps(value, indent=2)``,
its lines re-indented to where the value sits, with one exception: ``item``
quotes a list of strings (a row of matrix cells) by one ``map`` and one join,
which gives the same text without the pure-Python encoder's generator per
level and token.

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


def item(value: object) -> str:
    """``value`` as an item of an iterator member of a ``write`` document."""
    if isinstance(value, (list, tuple)) and value:
        inner = ITEM + _UNIT
        try:  # a list of strings, quoted by one map
            return f"[{inner}{(',' + inner).join(map(quote, value))}{ITEM}]"
        except TypeError:  # quote met an item that is not a string
            pass
    return json.dumps(value, indent=2).replace("\n", ITEM)


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
        stdout.write(json.dumps(payload, indent=2) + "\n")
        return
    sep = "," + ITEM
    text = "{"  # held until the next item is written, or the end
    for key, value in payload.items():
        text += f"\n{_UNIT}{quote(key)}: "
        if not hasattr(value, "__next__"):
            text += json.dumps(value, indent=2).replace("\n", "\n" + _UNIT) + ","
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
