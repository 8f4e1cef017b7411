"""Fit rows by the exact bytes of their input, read from ``fit_rows.bin``.

``zeta._constant_rows`` is a pure function of its float64 columns and
``sizes``, so its rows for the first cutoff's windows ship with the package,
each keyed by the SHA-512 of its input.  A lookup either returns the
solver's bits for exactly these columns or solves: another cutoff, or numpy
that rounds a power or a logarithm differently, only misses.  A 1-ulp change
in one column can move a deep row by 1e-3 relative, so nothing is matched
by tolerance.  The file is read at the first lookup, not at import.
``tests/make_fit_rows.py`` writes it.
"""

import os
import struct

import numpy as np

try:  # CPython's own SHA-512, as random imports it: hashlib loads OpenSSL,
    # 3.7 MB more resident memory
    from _sha2 import sha512
except ImportError:
    try:
        from _sha512 import sha512  # before Python 3.12
    except ImportError:
        from hashlib import sha512

PATH = os.path.join(os.path.dirname(__file__), "fit_rows.bin")
_ENTRY = struct.Struct("<64sHH")  # each entry: digest, rows, points; then its rows as little-endian float64
# rows by digest: the file's, then those solved in this process; threads
# share it safely, as a lost race only reads the file or solves a window twice
_table = None


def digest(columns, sizes):
    """SHA-512 of the exact input: its shape, ``sizes`` and the columns' bits."""
    a = np.asarray(columns, "<f8")
    return sha512(np.array([*a.shape, len(sizes), *sizes], "<i8").tobytes() + a.tobytes()).digest()


def rows(columns, sizes, solve):
    """The read-only array of ``solve(columns, sizes)``: from the table if it
    holds this input, else solved and kept."""
    global _table
    if _table is None:
        _table = load(PATH)
    key = digest(columns, sizes)
    found = _table.get(key)
    if found is None:
        found = np.array(solve(columns, sizes))
        found.flags.writeable = False  # shared by every caller
        _table[key] = found
    return found


def pack(table):
    """The file's bytes for ``table``, entry by entry in its order."""
    return b"".join(_ENTRY.pack(key, *r.shape) + r.astype("<f8").tobytes() for key, r in table.items())


def load(path):
    """The table in the file at ``path``, read-only arrays by digest; empty
    if there is no file."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except FileNotFoundError:
        return {}
    table, pos = {}, 0
    while pos < len(data):
        key, m, n = _ENTRY.unpack_from(data, pos)
        pos += _ENTRY.size
        table[key] = np.frombuffer(data, "<f8", m * n, pos).reshape(m, n)
        pos += 8 * m * n
    return table
