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
of n non-negative integers into one read-only int32 array, with byte and
numpy checks and no Python object per entry, and leaves every other text
(a table with a '-' in it included) to the standard ``json`` code, so the
inputs accepted, the values and the error messages are those of
``json.loads``.  A number is a run of ASCII digits and every other byte a
separator, so no sign is decoded.  The text is read in blocks of about
``_READ_BLOCK`` characters cut at row ends, so no temporary grows with
the table.  A block's separators are located once and compared with a
row template, and its numbers are decoded from the 8-byte words that end
at their last bytes, with no number parser and no Python work per row.
``group_from_spec`` checks such an array's cap, and ``FiniteGroup``
verifies it like any table and keeps it without a copy.  The file's
bytes are hashed and freed before the text is parsed, so a read holds
one copy of the text.  On a relabelled D384 table spec (order 768, 2.87
MB) reading the file (hash, decode and parse) takes a median 21.9 ms,
against 30.8 ms when numpy's string parser read each block's numbers (a
median paired ratio of 0.72 over 40 reads each, alternated in one
process, faster in each), at the same 2.9 MiB peak (``tracemalloc``);
``read_group`` peaks at 5.7 MiB (2-vCPU Xeon VM, Python 3.11, numpy 2.4).
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
# an array whose first element is an array whose first character is a digit
_TABLE_START = re.compile(r"[ \t\n\r]*\[[ \t\n\r]*[0-9]")


# The reader decodes a table's text in blocks of about this many characters,
# cut at row ends, so that its temporaries (a block's bytes, the separators'
# offsets and the numbers' words) stay in cache and none grows with the
# table.  On the relabelled D384 spec, blocks of 16, 32, 256 and 1024 KiB
# read 7, 1, 3 and 28 % slower than 64 KiB (median paired ratios of 20
# reads, alternated).
_READ_BLOCK = 64 * 1024
# A number's digits are read from the little-endian 8-byte word that ends
# at its last byte, so a block's bytes follow this many bytes of padding and
# the word that starts at a byte's offset ends just before it.
_PAD = 8
# The steps of _digit_values as uint64 scalars, which numpy applies faster
# than Python ints: each multiplier adds to every 1-, 2- and then 4-byte
# lane 10, 100 and then 10000 times the lane below it, the digits before
# it, and the shift and mask keep the upper lane of each pair.
_FOLD = [
    (np.uint64(10 << 8 | 1), np.uint64(8), np.uint64(0x00FF00FF00FF00FF)),
    (np.uint64(100 << 16 | 1), np.uint64(16), np.uint64(0x0000FFFF0000FFFF)),
    (np.uint64(10000 << 32 | 1), np.uint64(32), None),
]
# Both tables are read at a number's count of digits d plus one (the step
# between the separators around it), clipped to 10: the word mask that
# keeps its top d bytes, and the least value of d digits with no leading
# zero (1 for none, an empty gap; index 0 is never read).  A number of 9
# or more digits is at least 10**8, out of range for any table that fits
# in memory, and is left to json: no word reaches its least value.
_DIGIT_BYTES = np.array([0] + [(1 << 64) - (1 << 8 * (8 - d)) for d in range(9)] + [0], dtype=np.uint64)
_LEAST = np.array([1, 1, 0] + [10 ** (d - 1) for d in range(2, 9)] + [1 << 32], dtype=np.uint64)


def _table_close(s: str, end: int, stop: int) -> tuple[int, int] | None:
    """The index of the first "]" in ``s[end:stop]`` that whitespace and a
    "]" follow there, and the index after that second "]"; None if none
    does."""
    i = s.find("]", end, stop)
    while i >= 0:
        j = i + 1
        while j < stop and s[j] in _JSON_WS:
            j += 1
        if j < stop and s[j] == "]":
            return i, j + 1
        i = s.find("]", j, stop)
    return None


def _number_runs(raw: bytes) -> int:
    """How many maximal runs of ASCII digits the text, which does not
    start with a digit, holds."""
    inside = np.frombuffer(raw, np.uint8) - ord("0") < 10
    return int(np.count_nonzero(inside[1:] > inside[:-1]))


def _digit_values(words: np.ndarray) -> np.ndarray:
    """The numbers that the little-endian words spell, in place: each byte
    holds a digit's value 0-9, the first byte the leading digit and the
    last the units, and three multiply-shift-mask steps join neighbouring
    bytes, then pairs, then fours."""
    for multiplier, shift, mask in _FOLD:
        words *= multiplier
        words >>= shift
        if mask is not None:
            words &= mask
    return words


def _block_values(raw: bytes, n: int, last: bool) -> np.ndarray | None:
    """The rows of the block ``raw`` as an (rows, n) integer array, if with
    its whitespace deleted it is "[" for the first block (n = 0: its first
    row gives n) or "," for a later one, then rows "[...]" of n JSON
    integers, runs of at most 8 ASCII digits, joined by ",", then "]" if it
    is the last block; else None."""
    text = bytes(_PAD) + raw.translate(None, b" \t\n\r")
    a = np.frombuffer(text, np.uint8)[_PAD:]
    # the separators are the bytes other than digits, so one compare with
    # the row template checks every bracket, comma, row length and stray
    # byte, a sign, a '.' or an exponent included
    at = (a - ord("0") >= 10).nonzero()[0]
    seps = a[at].tobytes()
    head = b"," if n else b"["
    n = n or seps.find(b"]") - 1
    if n < 1:
        return None
    rows = (len(seps) - last) // (n + 2)
    template = head + (b"[" + b"," * (n - 1) + b"],") * rows
    if at[0] or seps != template[:-1] + (b"]" if last else b""):
        return None
    # Each number lies between two separators, so its runs of digits
    # in the text are at least the rows * n gaps that hold a number, and
    # as many exactly when every other gap is empty and deleting whitespace
    # joined no two runs into one.  An empty gap where a number belongs
    # fails the leading-zero test below.
    if _number_runs(raw) != rows * n:
        return None
    # row r's separators are [",", "[", n - 1 ",", "]"], the first row's
    # "," the block's head, and its numbers lie between the 2nd and the last
    grid = at[: rows * (n + 2)].reshape(rows, n + 2)
    before, after = grid[:, 1:-1], grid[:, 2:]
    # the step between the separators around each number, its count of
    # digits plus one
    places = after - before
    # the 8 bytes that end at each number's last byte, its digits in the
    # top ones (indexed, as take would first copy every window of the
    # block, 8 bytes a byte); XOR maps a digit to its value, and an empty
    # number keeps no byte, so it reads as 0 and fails the leading-zero
    # test below
    words = np.ndarray((len(text) - 7,), "<u8", text, 0, (1,))[after]
    words ^= 0x3030303030303030
    words &= _DIGIT_BYTES.take(places, mode="clip")
    values = _digit_values(words)
    # a leading zero makes a value smaller than its digits allow
    if (values < _LEAST.take(places, mode="clip")).any():
        return None
    return values


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
    rows of n non-negative JSON integers of at most 8 digits, in ASCII,
    with whitespace only between tokens; else None.

    The text read is bounded by the next '"', so no two calls read the
    same text and a document costs time linear in its length.  It is read
    in blocks of about ``_READ_BLOCK`` characters, each cut after a row's
    "]" and checked on its own, into one array allocated once the first
    row gives n."""
    if not (_TABLE_START.match(s, end) and _is_table_key(s, end - 1)):
        return None
    stop = s.find('"', end)
    close = _table_close(s, end, len(s) if stop < 0 else stop)
    if close is None:
        return None
    last, finish = close  # the last row's "]", the index after the table
    out, n = None, 0
    start = end - 1
    while start < finish:
        # the next row end past a block, short of the last row's; the last
        # block holds the table's closing brackets
        cut = s.find("]", start + _READ_BLOCK, last) + 1 or finish
        try:
            raw = s[start:cut].encode("ascii")
        except UnicodeEncodeError:
            return None
        values = _block_values(raw, n, cut == finish)
        if values is None:
            return None
        if out is None:
            n = values.shape[1]
            # each entry takes a digit and a separator, so a text too short
            # for n rows of n is not one
            if 2 * n * n > finish - end:
                return None
            out, filled = np.empty((n, n), dtype=np.int32), 0
        if filled + len(values) > n:
            return None
        out[filled : filled + len(values)] = values
        filled += len(values)
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
    as n rows of n non-negative integers of at most 8 digits comes back as
    one read-only n x n int32 array that owns its memory, with no Python
    object per entry, which ``FiniteGroup`` keeps without a copy.
    Everything else, a "table" value written any other way included, is
    read by the standard library's own code, so the inputs accepted, the
    values and the error messages are the same.  A table entry is an
    element id, so a negative integer, or one of 9 or more digits (at
    least 10**8, out of range for any table that fits in memory), sends
    its table back as lists, and ``group_from_spec`` names the entry out
    of range as it would in an array.  A text with no literal ``"table"``
    holds no such key written plainly, so it goes to plain ``json.loads``
    and its C scanner; a key written with an escape (``"\\u0074able"``)
    then comes back as lists, which ``group_from_spec`` checks in full.
    JSON nested too deeply to read is a ``ValueError``."""
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
