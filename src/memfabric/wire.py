"""JSON in and out of the process: artifact lines on disk, remote calls over HTTP.

The audit log, permission event log, store snapshot and transcript are
JSON-lines files, one document per line with sorted keys, so equal runs give
equal bytes. Both directions stream a line at a time.

Every remote backend is one JSON POST whose reply object carries the answer
in one field. Every way that call can fail - transport, HTTP protocol, an
undecodable reply (one nested too deeply included), a reply that is not an
object or lacks the field, a field of the wrong type - raises
:class:`RemoteUnavailable`, which the service answers 503. A chat ``output``
must be a string; nothing a backend sends is coerced into one.
"""

from __future__ import annotations

import http.client
import io
import json
import urllib.request
from pathlib import Path
from typing import Iterable, Iterator

from .errors import RemoteUnavailable


# json.dumps and ENCODER.encode build a C encoder per call; one built once gives
# the same bytes. No cycle check: documents are built here or decoded from JSON
ENCODER = json.JSONEncoder(sort_keys=True)
quote = json.encoder.encode_basestring_ascii  # how dumps writes a str
_C_ENCODER = json.encoder.c_make_encoder and json.encoder.c_make_encoder(
    None, ENCODER.default, quote, None, ENCODER.key_separator,
    ENCODER.item_separator, ENCODER.sort_keys, ENCODER.skipkeys, ENCODER.allow_nan)


def dumps(doc: object) -> str:
    """The text of ``json.dumps(doc, sort_keys=True)``."""
    return ENCODER.encode(doc) if _C_ENCODER is None else "".join(_C_ENCODER(doc, 0))


def encode(doc: object) -> str:
    """One JSON-lines record: sorted keys and a trailing newline."""
    return dumps(doc) + "\n"


def dump(path: str | Path, docs: Iterable[object]) -> None:
    """Write ``docs`` to ``path`` one line at a time, replacing the file."""
    with Path(path).open("w", encoding="utf-8") as fp:
        fp.writelines(map(encode, docs))


def decode(lines: Iterable[str] | str) -> Iterator:
    """Documents of JSON-lines text, parsed lazily; blank lines are skipped."""
    for line in io.StringIO(lines) if isinstance(lines, str) else lines:
        if line.strip():
            yield json.loads(line)


def load(path: str | Path) -> Iterator:
    """Documents of the JSON-lines file at ``path``, parsed lazily."""
    with Path(path).open(encoding="utf-8") as fp:
        yield from decode(fp)


def post_json(endpoint: str, payload: object, field: str, timeout: float):
    """POST ``payload`` as JSON and return ``field`` of the reply object."""
    request = urllib.request.Request(
        endpoint,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            reply = json.loads(response.read())
    except (OSError, ValueError, RecursionError, http.client.HTTPException) as exc:
        raise RemoteUnavailable(f"backend at {endpoint}: {exc!r}") from exc
    if not isinstance(reply, dict) or field not in reply:
        raise RemoteUnavailable(f"backend at {endpoint}: reply has no {field!r} field")
    return reply[field]


def chat(endpoint: str, system: str, text: str, timeout: float) -> str:
    """The chat contract: ``{"system", "input"} -> {"output": text}``."""
    output = post_json(endpoint, {"system": system, "input": text}, "output", timeout)
    if not isinstance(output, str):
        raise RemoteUnavailable(f"backend at {endpoint}: output is not text: {output!r}")
    return output
