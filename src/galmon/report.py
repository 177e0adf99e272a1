"""The report writer: json.dumps(value, sort_keys=True, indent=2) text,
streamed to a file object in writes of bounded size."""

import itertools
import json

_encode_str = json.encoder.encode_basestring_ascii
# the text of a scalar other than a string, by its exact type; floats keep
# json's NaN and Infinity
_SCALARS = {bool: ("false", "true").__getitem__, int: int.__repr__,
            type(None): lambda _: "null", float: json.dumps}
_ARRAYS = {list, tuple}
CHUNK = 1 << 20    # the most characters one write to the stream carries
_BIG = 1 << 12     # a piece at least this long counts towards CHUNK
_PIECES = 1 << 11  # the buffer goes out once it holds more pieces than this
_BATCH = 1 << 14   # arrays of string arrays are joined this many at a time


def write_text(text, stream):
    """Write text to stream in pieces of at most CHUNK characters."""
    for i in range(0, len(text), CHUNK):
        stream.write(text[i:i + CHUNK])


def _joined(rows, between, within):
    """between.join(within.join(map(_encode_str, row)) for row in rows) for
    nonempty rows of strings, less its first and last quote, and its
    TypeError where a row holds something else.  When no string needs
    escaping, each is its quoted self, and nothing is encoded."""
    raw = "".join(map("".join, rows))
    if len(_encode_str(raw)) == len(raw) + 2:
        return ('"' + between + '"').join(map(('"' + within + '"').join, rows))
    return between.join(map(within.join, map(map, itertools.repeat(_encode_str), rows)))[1:-1]


def write_report(value, stream):
    """Write json.dumps(value, sort_keys=True, indent=2) and a newline to
    stream, byte for byte, for every value that call accepts, and raise its
    TypeError where it raises one.

    With indent set, json skips its C encoder and yields one token per
    generator step.  This walk dispatches on the exact type, writes true,
    false, null and ints itself, and joins an array of strings, or of
    nonempty arrays of strings, in C.  A dict met a second time at the
    same indent keeps its text, by identity within this one call, and is
    written as that text from then on.  The buffered pieces go out in
    writes of at most CHUNK characters, once there are more than _PIECES
    of them or CHUNK characters in those of _BIG or more, such as long
    strings and batches of string arrays, so a large report is never held
    whole.  A value that contains itself raises RecursionError here, not
    json's ValueError.
    """
    out, seen, cache = [], set(), {}  # dicts by (id, indent): met once, and their text
    append = out.append
    spills = held = 0  # times the buffer went out; characters in its long pieces

    def spill(piece=""):
        """Write out the buffer, then piece."""
        nonlocal spills, held
        spills, held = spills + 1, 0
        write_text("".join(out), stream)
        out.clear()
        write_text(piece, stream)

    def put(piece):
        nonlocal held
        if len(piece) >= _BIG:
            held += len(piece)
            if held >= CHUNK:
                return spill(piece)
        append(piece)

    def walk(value, pad, head):
        """Write head, then value at the indent pad."""
        kind = type(value)
        if kind is str:
            put(head + _encode_str(value))
        elif kind is list or kind is tuple:
            walk_list(value, pad, head)
        elif kind is dict:
            key = (id(value), pad)
            if key in cache:
                append(head)
                put(cache[key])
            else:
                walk_dict(value, pad, head, key in seen)
                seen.add(key)
        elif kind in _SCALARS:
            append(head + _SCALARS[kind](value))
        elif isinstance(value, dict):  # a subclass: written as a dict, its text not kept
            walk_dict(value, pad, head)
        elif isinstance(value, (list, tuple)):
            walk_list(value, pad, head)
        else:  # subclasses of str, int and float, and json's TypeError
            put(head + json.dumps(value))

    def walk_dict(value, pad, head, keep=False):
        """Write head and value; keep its text if all of it is still buffered."""
        if not value:
            return append(head + "{}")
        append(head)
        start, mark, inner = len(out), spills, pad + "  "
        sep = "{" + inner
        for name, item in sorted(value.items()):  # json's sort, so json's TypeError
            if not isinstance(name, str):
                if not isinstance(name, (int, float)) and name is not None:
                    raise TypeError("keys must be str, int, float, bool or None, not %s"
                                    % name.__class__.__name__)
                name = json.dumps(name)
            walk(item, inner, sep + _encode_str(name) + ": ")
            sep = "," + inner
            if len(out) > _PIECES:
                spill()
        append(pad + "}")
        if keep and spills == mark:
            cache[id(value), pad] = text = "".join(out[start:])
            out[start:] = (text,)

    def walk_list(value, pad, head):
        if not value:
            return append(head + "[]")
        inner, first, done = pad + "  ", type(value[0]), 0
        if first is str:
            try:  # strings, short enough to join at once
                if sum(map(len, value)) < CHUNK:
                    return put(head + "[" + inner + ("," + inner).join(map(_encode_str, value))
                               + pad + "]")
            except TypeError:  # not all of them are strings
                pass
        elif first in _ARRAYS and _ARRAYS.issuperset(map(type, value)) and all(value):
            deeper = pad + "    "
            try:  # a batch fails at a string array that holds something else
                for done in range(0, len(value), _BATCH):
                    text = _joined(value[done:done + _BATCH], inner + "]," + inner + "[" + deeper,
                                   "," + deeper)
                    append(head + ("," if done else "[") + inner + "[" + deeper + '"')
                    put(text)
                    append('"' + inner + "]")
                    head = ""
                return append(pad + "]")
            except TypeError:  # the items from this batch on go one by one
                pass
        sep = head + ("," if done else "[") + inner
        for item in value[done:] if done else value:
            walk(item, inner, sep)
            sep = "," + inner
            if len(out) > _PIECES:
                spill()
        append(pad + "]")

    walk(value, "\n", "")
    append("\n")
    spill()
