"""JSON text for the CLI, the bytes of ``json.dumps(value, indent=...)`` written faster.

With an indent, ``json.dumps`` runs the pure-Python encoder, which yields one
token at a time through nested generators.  ``IndentEncoder`` builds the same
text by recursion over dicts, lists, strings, ints, bools and None, quoting
strings with the encoder's own C routine.  Each container's text is one join
of its parts, so a large value is copied once per nesting level, not once
per concatenation; a list of strings (a row of matrix cells) is quoted by
one ``map`` with no recursive call per item.  Pass it as ``cls`` to
``json.dumps`` with an integer indent and otherwise default options; a value
of any other type (or a dict key that is not a string) sends the whole value
to the stock encoder, so the output is always what the stock encoder gives.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote


def _text(value: object, newline: str, unit: str) -> str:
    """``value`` as JSON, its inner lines opened by ``newline`` plus ``unit``."""
    if isinstance(value, str):
        return _quote(value)
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
            return f"[{inner}{sep.join(map(_quote, value))}{newline}]"
        except TypeError:  # _quote met an item that is not a string
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
            # _quote raises TypeError for a key that is not a string
            parts += (_quote(key), ": ", _text(item, inner, unit), sep)
        parts[-1] = newline + "}"
        return "".join(parts)
    raise TypeError(f"{type(value).__name__} is left to the stock encoder")


class IndentEncoder(json.JSONEncoder):
    """A ``json.dumps`` encoder with the stock output for an integer indent."""

    def encode(self, o: object) -> str:
        try:
            return _text(o, "\n", " " * self.indent)
        except TypeError:
            return super().encode(o)
