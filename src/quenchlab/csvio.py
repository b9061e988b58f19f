"""The one CSV writer behind every data file, and the package's two failure types.

A file is a header line, optional ``# `` comment lines, then a body.  A
body is built by a single ``%`` on a row template over a flat tuple of
values, not by one format call per row.  A value that every row of a
body shares (the s of one frame sample) is formatted once and built into
the template as literal text, so only the columns that vary are
formatted per row.

Templates and bodies are ASCII bytes, written as they are.  Numbers are
written ``%.17g`` (round-trip exact, '.' decimals, ``nan``, ``inf``, and
``1``/``0`` for booleans); ``None`` is an empty cell; lines end in LF.  Files read back in that are
missing or malformed raise `MissingInput`.  Every solver fault (a
stalled continuation, a failed eigen or stage solve, a time step that
collapses) is a `SolverFailure`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

FLOAT = "%.17g"


class MissingInput(ValueError):
    """An input file is absent or does not hold what its writer wrote."""


class SolverFailure(RuntimeError):
    """A solver gave up; `stage` names the failed solve in messages (None: the command itself)."""

    stage = None


def template(n_rows: int, columns: Sequence[str]) -> bytes:
    """Row template of n_rows rows, for a later ``template % values``.

    Each column is the same text in every row: FLOAT for a value filled
    in later, or a literal cell.
    """
    return (",".join(columns) + "\n").encode() * n_rows


def interleave(*columns) -> tuple:
    """The ``%`` operand of a template: the varying columns, row by row."""
    return tuple(np.column_stack(columns).ravel().tolist())


def write(path, header: str, bodies: Iterable[bytes], comments: Sequence[str] = ()) -> None:
    """Write the header, one ``# `` line per comment, then each body in turn.

    `bodies` may be a generator, so a long file is formatted and held in
    memory one chunk at a time (`writelines` drops each chunk once written).
    """
    with open(path, "wb") as fh:
        fh.write("".join([header + "\n"] + ["# %s\n" % c for c in comments]).encode())
        fh.writelines(bodies)


def write_rows(path, header: str, rows: Sequence[Sequence]) -> None:
    """Write a table given row by row; a None value is an empty cell."""
    tmpl = "".join([",".join(["" if v is None else FLOAT for v in row]) + "\n" for row in rows])
    values = tuple(v for row in rows for v in row if v is not None)
    write(path, header, [tmpl.encode() % values])
