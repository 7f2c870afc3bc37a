"""JSON group specs: the one module that reads or writes outside input for
groups.

A group spec is a JSON object with a "kind" (``group_from_spec`` lists
them), and ``group_to_spec`` writes any group back as a ``table`` spec.
The CLI reads every input file here: ``read_group`` for ``pw`` and ``qh
--top``, ``read_factor_moduli`` for ``nilprod``, whose moduli
``NilProdGroup`` then checks.  The other modules take Python values and
use this one only for ``_json_int``, which refuses a value that is not an
int (a bool included) as a JSON reader would.

A ``table`` spec is read straight from its JSON text into its table:
``spec_from_json`` decodes the value of a "table" key written as n rows
of n integers into one read-only int32 array, with byte and numpy checks
and no Python object per entry, and leaves every other text to the
standard ``json`` code, so the inputs accepted, the values and the error
messages are those of ``json.loads``.  The text is read in blocks of about
``_READ_BLOCK`` characters cut at row ends, so no temporary grows with
the table.  ``group_from_spec`` checks such an array's cap, and
``FiniteGroup`` verifies it like any table and keeps it without a copy.
The file's bytes are hashed and freed before the text is parsed, so a
read holds one copy of the text.  On a relabelled D384 table spec (order
768, 2.87 MB) reading takes a median 24-35 ms at a 3.0 MiB peak
(``tracemalloc``) and building the group 2.3-2.4 ms, against 28-48 ms at
18.0 MiB and 3.3 ms when the table was read whole into int64 and copied
(four runs of 15 or 60 reads, alternated in one process, faster in each),
and 73-75 and 61-63 ms through ``json.loads`` and lists; ``read_group``
peaks at 5.7 MiB, against 23.4 (2-vCPU Xeon VM, Python 3.11, numpy 2.4).
"""

from __future__ import annotations

import hashlib
import json
import json.decoder
import json.scanner
import re

import numpy as np

from .finite_groups import (
    DEFAULT_CAP,
    FiniteGroup,
    _check_cap,
    cyclic,
    dihedral,
    direct_product,
    sym3_fink,
)

__all__ = [
    "group_from_spec",
    "group_to_spec",
    "spec_from_json",
]


def _json_int(value, what: str) -> int:
    # bool is an int subclass and JSON true/false must not pass as 1/0
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _spec_field(spec: dict, name: str):
    if name not in spec:
        raise ValueError(f"{spec['kind']!r} group spec needs the field {name!r}")
    return spec[name]


# characters that delimit labels in the text formats: words split on
# whitespace and '*', wreath elements on ';', ',' and brackets
_LABEL_DELIMITERS = re.compile(r"[\s*;,\[\]]")


def _label(value) -> str:
    """A generator label from a spec: a non-empty string that the text
    formats read back as one letter, so no delimiter and not "1"."""
    if not isinstance(value, str) or not value or value == "1" or _LABEL_DELIMITERS.search(value):
        raise ValueError(
            f"generator label {value!r} must be a non-empty string other than '1' "
            "with no whitespace, '*', ';', ',', '[' or ']'"
        )
    return value


_JSON_WS = " \t\n\r"
# an array whose first element is an array whose first character starts a
# number, and the first "]]" (whitespace allowed between) after it
_TABLE_START = re.compile(r"[ \t\n\r]*\[[ \t\n\r]*[-0-9]")
_TABLE_END = re.compile(r"\][ \t\n\r]*\]")


# The reader decodes a table's text in blocks of about this many characters,
# cut at row ends, so that its temporaries (a block's bytes, its byte masks
# and its int64 values) stay in cache and none grows with the table.  On the
# relabelled D384 spec, blocks of 64, 128 and 256 KiB read within noise of
# each other and 16 and 512 KiB slower (medians of 15 reads, alternated);
# the smallest of the three keeps the temporaries smallest.
_READ_BLOCK = 64 * 1024
_INT32 = np.iinfo(np.int32)


def _block_values(flat: bytes) -> np.ndarray | None:
    """The integers of ``flat`` as int64, if ``flat`` is "," then JSON
    integers -?(0|[1-9][0-9]*) joined by "," then "," and each fits in
    int32; else None."""
    a = np.frombuffer(flat, np.uint8)
    digit = a - ord("0") < 10  # uint8 arithmetic wraps below "0"
    comma, minus = a == ord(","), a == ord("-")
    if not (digit | comma | minus).all():
        return None
    # a comma ends a number, so follows a digit; a minus starts one, so
    # follows a comma; a zero that starts one is not followed by a digit
    if (comma[1:] & ~digit[:-1]).any() or (minus[1:] & ~comma[:-1]).any():
        return None
    if ((a[1:-1] == ord("0")) & ~digit[:-2] & digit[2:]).any():
        return None
    # a value past 18 digits would overflow int64 in np.fromstring, and one
    # past int32 needs 10 digits.  Only a run of 7 or more digits fills an
    # aligned 4-byte word of the digit mask, so only a block with one is
    # searched for a run of 19 and range-checked.  On the relabelled D384
    # spec the word test takes 4 us a 64 KiB block and the bytes search
    # 45 us: searching every block read it in a median 30.3-31.3 ms against
    # 27.2-28.1 ms (30 reads, alternated).  Range-checking every block read
    # the T-S3xC12 spec 2.6 % slower (median paired ratio of 200 rounds)
    long = (digit[: len(digit) // 4 * 4].view(np.uint32) == 0x01010101).any()
    if long and b"\x01" * 19 in digit.tobytes():
        return None
    values = np.fromstring(flat[1:-1], dtype=np.int64, sep=",")
    if long and (values.min() < _INT32.min or values.max() > _INT32.max):
        return None
    return values


def _number_runs(raw: bytes) -> int:
    """How many maximal runs of number characters (digits and '-') the
    text, which does not start with one and holds no '.' or '/', holds."""
    inside = np.frombuffer(raw, np.uint8) - ord("-") < 13  # '-' to '9'
    return int(np.count_nonzero(inside[1:] > inside[:-1]))


def _is_table_key(s: str, bracket: int) -> bool:
    """Whether the array opening at ``s[bracket]`` is the value of a
    "table" key (the text before it was read as valid JSON, so an
    unescaped quote before "table" opens the key)."""
    i = bracket
    while i and s[i - 1] in _JSON_WS:
        i -= 1
    if s[i - 1 : i] != ":":
        return False
    i -= 1
    while i and s[i - 1] in _JSON_WS:
        i -= 1
    return s[i - 7 : i] == '"table"' and s[i - 8 : i - 7] != "\\"


def _read_table(s: str, end: int) -> tuple[np.ndarray, int] | None:
    """The array opening at ``s[end - 1]`` as a square read-only int32
    array and the index after it, if it is a "table" value written as n
    rows of n JSON integers that fit in int32, in ASCII, with whitespace
    only between tokens; else None.

    The text read is bounded by the next '"', so no two calls read the
    same text and a document costs time linear in its length.  It is read
    in blocks of about ``_READ_BLOCK`` characters, each cut after a row's
    "]" and checked on its own, into one array allocated once the first
    row gives n."""
    if not (_TABLE_START.match(s, end) and _is_table_key(s, end - 1)):
        return None
    stop = s.find('"', end)
    close = _TABLE_END.search(s, end, len(s) if stop < 0 else stop)
    if close is None:
        return None
    last, finish = close.start(), close.end()  # the last row's "]", the index after the table
    out = None
    start = end - 1
    while start < finish:
        # the next row end past a block, short of the last row's; the last
        # block holds the table's closing brackets
        cut = s.find("]", start + _READ_BLOCK, last) + 1 or finish
        try:
            raw = s[start:cut].encode("ascii")
        except UnicodeEncodeError:
            return None
        # "[" opens the first block and "," each later one; "]" closes the
        # last; what is left must be rows "[...]" joined by ","
        compact = raw.translate(None, b" \t\n\r")
        if compact[:1] != (b"[" if out is None else b","):
            return None
        body = compact[1:-1] if cut == finish else compact[1:]
        if body[:1] != b"[" or body[-1:] != b"]":
            return None
        rows = body[1:-1].split(b"],[")
        commas = {row.count(b",") for row in rows}
        if len(commas) != 1:
            return None
        if out is None:
            n = commas.pop() + 1
            # each entry takes a digit and a separator, so a text too short
            # for n rows of n is not one
            if 2 * n * n > finish - end:
                return None
            out, filled = np.empty((n, n), dtype=np.int32), 0
        elif commas.pop() + 1 != n:
            return None
        # a bracket left inside a row fails the number check
        values = _block_values(b",".join([b"", *rows, b""]))
        # deleting whitespace must not have joined two runs into one number
        if values is None or len(values) != _number_runs(raw) or filled + len(rows) > n:
            return None
        out[filled : filled + len(rows)] = values.reshape(len(rows), n)
        filled += len(rows)
        start = cut
    if filled != n:
        return None
    out.flags.writeable = False
    return out, finish


class _SpecDecoder(json.JSONDecoder):
    """The standard JSON decoder, on the Python scanner so that arrays go
    through ``_read_table`` first."""

    def __init__(self) -> None:
        super().__init__()
        self.parse_array = self._parse_array
        self.scan_once = json.scanner.py_make_scanner(self)

    @staticmethod
    def _parse_array(s_and_end, scan_once):
        return _read_table(*s_and_end) or json.decoder.JSONArray(s_and_end, scan_once)


def spec_from_json(text: str):
    """``json.loads(text)``, except that the value of a "table" key written
    as n rows of n integers that fit in int32 comes back as one read-only
    n x n int32 array that owns its memory, with no Python object per
    entry, which ``FiniteGroup`` keeps without a copy.  Everything else, a
    "table" value written any other way included, is read by the standard
    library's own code, so the inputs accepted, the values and the error
    messages are the same.  A text with no literal ``"table"`` holds no
    such key written plainly, so it goes to plain ``json.loads`` and its C
    scanner; a key written with an escape (``"\\u0074able"``) then comes
    back as lists, which ``group_from_spec`` checks in full.  JSON nested
    too deeply to read is a ``ValueError``."""
    decoder = _SpecDecoder if '"table"' in text else None
    try:
        return json.loads(text, cls=decoder)
    except RecursionError:
        raise ValueError("JSON nested too deeply to read") from None


def _table_rows(rows, cap: int) -> np.ndarray:
    """A table spec's rows as a 2-D integer array.  An integer array (what
    ``spec_from_json`` reads) needs only the cap and squareness checks; a
    list (a library caller's, or ``spec_from_json``'s when the text is not
    plain integer rows) must also hold lists of JSON integers."""
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind == "i":
        _check_cap(len(rows), cap, "table group")
        if rows.shape[1] != len(rows):
            raise ValueError(f"row 0 has length {rows.shape[1]}, expected {len(rows)}")
        return rows
    if not isinstance(rows, list):
        raise ValueError("table must be a list of rows")
    _check_cap(len(rows), cap, "table group")
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise ValueError(f"row {i} is not a list")
        if len(row) != len(rows):
            raise ValueError(f"row {i} has length {len(row)}, expected {len(rows)}")
        if set(map(type, row)) != {int}:
            raise ValueError(f"row {i} has an entry that is not an integer")
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        # the first entry, in row-major order, that FiniteGroup would name
        bad = next(x for row in rows for x in row if not 0 <= x < len(rows))
        raise ValueError(f"table entry {bad} out of range") from None


def group_from_spec(spec: dict, cap: int = DEFAULT_CAP) -> FiniteGroup:
    """Build a group from its JSON spec.

    Kinds: {"kind": "cyclic", "n": m}, {"kind": "dihedral", "n": m},
    {"kind": "sym3_fink"}, {"kind": "direct_product", "factors": [...]},
    {"kind": "table", "table": [[...]], "gens": [["a", 1], ...]}.
    Every size, table entry and generator id must be a JSON integer, and
    every generator label a string that the text formats read back as one
    letter; a missing field is a ``ValueError`` naming it.  A table may
    also be a 2-D integer array, as ``spec_from_json`` reads it.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("group spec must be an object with a 'kind' field")
    kind = spec["kind"]
    if kind == "cyclic":
        return cyclic(_json_int(_spec_field(spec, "n"), "n"), cap=cap)
    if kind == "dihedral":
        return dihedral(_json_int(_spec_field(spec, "n"), "n"), cap=cap)
    if kind == "sym3_fink":
        return sym3_fink(cap=cap)
    if kind == "direct_product":
        factors = spec.get("factors", [])
        if not isinstance(factors, list):
            raise ValueError(f"direct_product factors must be a list, got {factors!r}")
        if len(factors) < 2:
            raise ValueError("direct_product needs at least two factors")
        G = group_from_spec(factors[0], cap=cap)
        for f in factors[1:]:
            G = direct_product(G, group_from_spec(f, cap=cap), cap=cap)
        return G
    if kind == "table":
        table = _table_rows(_spec_field(spec, "table"), cap)
        entries = _spec_field(spec, "gens")
        if not isinstance(entries, list):
            raise ValueError("gens must be a list of [label, id] pairs")
        gens = []
        for entry in entries:
            if not isinstance(entry, list) or len(entry) != 2:
                raise ValueError(f"generator {entry!r} must be a [label, id] pair")
            gens.append((_label(entry[0]), _json_int(entry[1], "generator id")))
        return FiniteGroup(table, gens, name=str(spec.get("name", "table")))
    raise ValueError(f"unknown group kind {kind!r}")


def group_to_spec(G: FiniteGroup) -> dict:
    """Normalized explicit-table spec; parses back to an identical group."""
    return {
        "kind": "table",
        "name": G.name,
        "table": G.table.tolist(),
        "gens": [[label, g] for label, g in G.gens],
    }


# ---------------------------------------------------------------------------
# input files
# ---------------------------------------------------------------------------


def _digest(data: bytes) -> str:
    """The SHA-256 hex digest of ``data``: a report's ``input_digest``."""
    return hashlib.sha256(data).hexdigest()


def _read_json(path: str):
    """The JSON value of the file at ``path`` and the ``_digest`` of its
    bytes, which are freed before the text is parsed."""
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = _digest(raw)
    text = raw.decode("utf-8")
    del raw
    return spec_from_json(text), digest


def read_group(path: str, cap: int) -> tuple[FiniteGroup, str]:
    """The group that the spec file at ``path`` describes, and the digest
    of the file's bytes."""
    spec, digest = _read_json(path)
    return group_from_spec(spec, cap=cap), digest


def read_factor_moduli(path: str) -> tuple[list, str]:
    """The factors' moduli lists that the file at ``path`` gives as
    [{"moduli": [m1, m2, ...]}, ...] (also under an object's "factors",
    or as one such object alone), and the digest of the file's bytes.
    ``NilProdGroup`` checks the moduli themselves."""
    factors, digest = _read_json(path)
    if isinstance(factors, dict):
        factors = factors.get("factors", [factors])
    if not isinstance(factors, list):
        raise ValueError("factor specs must be a list")
    if not all(isinstance(f, dict) and isinstance(f.get("moduli"), list) for f in factors):
        raise ValueError('each factor spec must be {"moduli": [m1, m2, ...]}')
    return [f["moduli"] for f in factors], digest
