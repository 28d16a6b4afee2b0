"""System-specification files: a small JSON interchange format.

Canonical document shape::

    {
      "contents": [{"id": "q1", "label": "first question"}, ...],
      "contexts": [
        {"id": "c1", "contents": ["q1", "q2"], "probs": [0.5, 0.0, 0.0, 0.5]},
        {"id": "c2", "contents": ["q2", "q3"],
         "probs": {"Yes,Yes": 0.5, "No,No": 0.5}}
      ],
      "values": {"Agree": 1, "Disagree": -1}
    }

``probs`` is either a dense vector of length 2**k in assignment-index order
(bit j, least significant = j-th content of the context, 1 = +1 = "Yes"), or
an object enumerating outcomes by comma-separated value labels, one label per
content in context order; omitted outcomes are zero.  The optional top-level
``values`` map adds label aliases; every alias must resolve to +1 or -1
(anything else declares a non-binary outcome, which is a hard error).

Serialization always emits the canonical dense form with floats printed to 17
significant digits, so parse -> serialize -> parse is the identity and the
output round-trips losslessly byte for byte.  One writer,
:func:`dumps_canonical`, prints both system files and the CLI's JSON reports.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import IO, Any, Callable

from .errors import ParseError
from .system import M_MAX, NO, YES, Bunch, Content, System

DEFAULT_VALUE_ALIASES = {"Yes": YES, "No": NO, "+1": YES, "-1": NO, "1": YES}


def format_float(value: float) -> str:
    """Decimal rendering with 17 significant digits (lossless for doubles)."""
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite value {value!r}")
    return format(value + 0.0, ".17g")


def dumps_canonical(obj: Any) -> str:
    """Deterministic JSON: insertion-ordered keys, two-space indentation,
    strings and keys ASCII-escaped as ``json.dumps`` does, floats via
    :func:`format_float`.  Used for system files and machine reports so
    equal inputs always produce byte-identical output.

    One recursive pass appends the pieces to a list: each node is
    dispatched on its exact type first, with ``isinstance`` checks after
    that for subclasses (``numpy.float64``, say), and each level is handed
    its newline-plus-indent string instead of rebuilding it.
    """
    pieces: list[str] = []
    _write_json(obj, pieces.append, "\n")
    return "".join(pieces)


def _write_json(obj: Any, emit: Callable[[str], None], newline: str) -> None:
    """Append ``obj`` through ``emit``; ``newline`` is a line break plus the
    indent of the line ``obj`` starts on."""
    kind = type(obj)
    if kind is str:
        emit(_quote(obj))
    elif kind is float:
        emit(format_float(obj))
    elif kind is dict:
        _write_object(obj, emit, newline)
    elif kind is list or kind is tuple:
        _write_array(obj, emit, newline)
    elif obj is None:
        emit("null")
    elif obj is True:
        emit("true")
    elif obj is False:
        emit("false")
    elif isinstance(obj, str):
        emit(_quote(obj))
    elif isinstance(obj, int):
        emit(str(obj))
    elif isinstance(obj, float):
        emit(format_float(obj))
    elif isinstance(obj, dict):
        _write_object(obj, emit, newline)
    elif isinstance(obj, (list, tuple)):
        _write_array(obj, emit, newline)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def _write_object(obj: dict, emit: Callable[[str], None], newline: str) -> None:
    if not obj:
        emit("{}")
        return
    inner = newline + "  "
    separator = "{" + inner
    for key, value in obj.items():
        if not isinstance(key, str):
            raise TypeError(f"JSON object keys must be strings, got {key!r}")
        emit(separator)
        emit(_quote(key))
        emit(": ")
        _write_json(value, emit, inner)
        separator = "," + inner
    emit(newline + "}")


def _write_array(obj: list | tuple, emit: Callable[[str], None], newline: str) -> None:
    if not obj:
        emit("[]")
        return
    inner = newline + "  "
    separator = "[" + inner
    for value in obj:
        emit(separator)
        _write_json(value, emit, inner)
        separator = "," + inner
    emit(newline + "]")


def _value_aliases(doc: dict) -> dict[str, int]:
    aliases = dict(DEFAULT_VALUE_ALIASES)
    extra = doc.get("values", {})
    if not isinstance(extra, dict):
        raise ParseError('"values" must be an object mapping labels to +1/-1')
    for label, value in extra.items():
        # True == 1, so JSON true would otherwise pass as +1.
        if isinstance(value, bool) or value not in (1, -1):
            raise ParseError(
                f'value alias {label!r} maps to {value!r}; outcomes must be'
                " binary (+1 or -1)"
            )
        aliases[str(label)] = int(value)
    return aliases


def _probs_from_outcome_map(
    entries: dict, content_ids: list[str], aliases: dict[str, int], context_id: str
) -> list[float]:
    k = len(content_ids)
    probs = [0.0] * (1 << k)
    seen: set[int] = set()
    for key, value in entries.items():
        labels = [part.strip() for part in str(key).split(",")]
        if len(labels) != k:
            raise ParseError(
                f"context {context_id!r}: outcome {key!r} lists {len(labels)}"
                f" values for {k} contents"
            )
        index = 0
        for j, label in enumerate(labels):
            if label not in aliases:
                raise ParseError(
                    f"context {context_id!r}: unknown outcome label {label!r}"
                )
            if aliases[label] == 1:
                index |= 1 << j
        if index in seen:
            raise ParseError(
                f"context {context_id!r}: outcome {key!r} duplicates an assignment"
            )
        seen.add(index)
        probs[index] = _as_number(value, f"context {context_id!r} outcome {key!r}")
    return probs


def _as_number(value: Any, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ParseError(f"{what} is too large for a float") from exc


def parse_system(source: str | Path | IO[str]) -> System:
    """Read and validate a system file (path, or open text stream).

    Raises ParseError for undecodable or malformed documents and
    ValidationError, listing every violation, for structurally broken systems.
    """
    try:
        if hasattr(source, "read"):
            text = source.read()
        else:
            text = Path(source).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot decode input: {exc}") from exc
    return parse_system_text(text)


def parse_system_text(text: str) -> System:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # Besides JSONDecodeError (a ValueError), json.loads raises ValueError
        # for integers longer than sys.get_int_max_str_digits() and, as it
        # recurses once per nesting level, RecursionError for deep nesting.
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level must be a JSON object")
    for key in ("contents", "contexts"):
        if key not in doc or not isinstance(doc[key], list):
            raise ParseError(f'missing or non-list "{key}" section')

    aliases = _value_aliases(doc)

    contents = []
    for entry in doc["contents"]:
        if not isinstance(entry, dict) or "id" not in entry:
            raise ParseError(f"content entries need an id, got {entry!r}")
        contents.append(Content(str(entry["id"]), str(entry.get("label", ""))))

    bunches = []
    for entry in doc["contexts"]:
        if not isinstance(entry, dict) or "id" not in entry:
            raise ParseError(f"context entries need an id, got {entry!r}")
        cid = str(entry["id"])
        members = entry.get("contents")
        if not isinstance(members, list) or not all(isinstance(q, str) for q in members):
            raise ParseError(f'context {cid!r} needs a "contents" list of ids')
        if len(members) > M_MAX:
            # Checked before the probs: a context of k contents has 2**k.
            raise ParseError(
                f"context {cid!r} lists {len(members)} contents; the limit is {M_MAX}"
            )
        raw = entry.get("probs")
        if isinstance(raw, list):
            probs = [_as_number(v, f"context {cid!r} probs entry") for v in raw]
        elif isinstance(raw, dict):
            probs = _probs_from_outcome_map(raw, list(members), aliases, cid)
        else:
            raise ParseError(
                f'context {cid!r} needs "probs" as a vector or an outcome map'
            )
        bunches.append(Bunch(cid, tuple(members), tuple(probs)))

    return System(tuple(contents), tuple(bunches))


def system_to_dict(system: System) -> dict:
    """Canonical document form of a system (dense probs, declaration order)."""
    return {
        "contents": [{"id": c.id, "label": c.label} for c in system.contents],
        "contexts": [
            {"id": b.context, "contents": list(b.contents), "probs": list(b.probs)}
            for b in system.bunches
        ],
    }


def serialize_system(system: System) -> str:
    return dumps_canonical(system_to_dict(system)) + "\n"
