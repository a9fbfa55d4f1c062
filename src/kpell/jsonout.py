"""JSON text for the CLI: the bytes of ``json.dumps(value, indent=2)``, written a
piece at a time.

kpell's own strings (terms, ratios, polynomials in k, p + q*sqrt(d), an eigen
report's figures) are printable ASCII with no quote or backslash, which JSON
escapes none of, so they go between quotes as they are: a TEXT value of a
``template`` shape is a ``"%s"`` slot, and ``texts`` joins a row of them.
Everything else is encoded by ``json.dumps(value, indent=2)``, its lines
re-indented to where the value sits.

``write`` prints a document whose members may be iterators of item texts,
from ``texts`` or a ``template``: the items are written as they come, so the
whole document is never held.
"""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii as quote

_UNIT = "  "  # the CLI's indent=2
# What opens each line of an item of an iterator member: two levels deep.
ITEM = "\n" + 2 * _UNIT
# The values that ``template`` makes a %s slot and a "%s" slot.
SLOT, TEXT = "\x00", "\x01"
_TEXTS = '",' + ITEM + _UNIT + '"'  # what joins the strings of ``texts``
_PIECE = 1 << 20  # characters of items written at once


def item(value: object) -> str:
    """``value`` by the stock encoder, as an item of an iterator member of a ``write`` document."""
    return json.dumps(value, indent=2).replace("\n", ITEM)


def texts(row: list[str]) -> str:
    """``item(row)`` for a list of strings JSON needs no escape in, by one join."""
    return "[" + ITEM + _UNIT + '"' + _TEXTS.join(row) + '"' + ITEM + "]" if row else "[]"


def template(shape: object) -> str:
    """``item(shape)`` as a %-template: each SLOT value is a %s, for JSON text,
    and each TEXT value a "%s", for a string JSON needs no escape in."""
    form = item(shape).replace("%", "%%")
    return form.replace(quote(SLOT), "%s").replace(quote(TEXT), '"%s"')


def write(payload: dict[str, object]) -> None:
    """Write ``json.dumps(payload, indent=2)`` and a newline to ``sys.stdout``.

    The keys are strings.  A member may be an iterator of item texts, from
    ``texts`` or a ``template``; it is written as a list, as its items come.
    ``sys.stdout`` is read at each call, so a redirected stdout gets the text.
    """
    stdout = sys.stdout
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
    stdout.write(text[:-1] + "\n}\n" if payload else "{}\n")
