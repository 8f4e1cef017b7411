"""Rebuild ``src/extshuffle/fit_rows.bin``, the first cutoff's fit rows.

Run from the repository root:

    PYTHONPATH=src python tests/make_fit_rows.py

Starting from an empty table, so that nothing is read, the package's own
``_fit_rows`` solves every depth with a fit order at the first cutoff, and
``_rowfile.pack`` lays out what it solved.  The file holds this machine's
columns and rows; ``tests/test_zeta.py`` checks that a rebuild reproduces it.

With ``--count`` it writes nothing and prints how many of those depths the
imported package reads from its file rather than solves, which shows whether
this platform's numpy makes the same columns.
"""

import sys
from itertools import count

from extshuffle import _rowfile
from extshuffle.zeta import _START_N, _fit_rows


def _solve_all(table):
    """Run ``_fit_rows``, uncached, for every depth with a fit order at the
    first cutoff, starting from ``table``; yields how many windows each
    depth solved."""
    _rowfile._table = table
    for k in count(1):
        before = len(table)  # a solved window joins the table
        (_, rows, _), _ = _fit_rows.__wrapped__(_START_N, k)
        if not len(rows):
            return
        yield len(table) - before


def build() -> bytes:
    """The file's bytes, solved here.  Leaves the solved rows as the package's table."""
    table = {}
    for _ in _solve_all(table):
        pass
    return _rowfile.pack(table)


def read_depths():
    """``(read, depths)``: how many of the depths the file serves whole."""
    solved = list(_solve_all(_rowfile.load(_rowfile.PATH)))
    return solved.count(0), len(solved)


if __name__ == "__main__":
    if sys.argv[1:] == ["--count"]:
        read, depths = read_depths()
        print(f"first-cutoff fit rows: {read} of {depths} depths read from {_rowfile.PATH}, {depths - read} solved")
    else:
        with open(_rowfile.PATH, "wb") as f:
            f.write(build())
