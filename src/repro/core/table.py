"""Tables: a bag of records together with an ordered tuple of column labels.

A table of arity k > 0 is a bag of records of length k (Section 2).  The
column labels are *not* part of the bag itself; they are computed by the
ℓ(·) function of Figure 3 and carried alongside so that query outputs can be
compared by the correctness criterion of Section 4: same number of columns,
same names in the same order, same rows with the same multiplicities.

Labels are plain :data:`~repro.core.values.Name` strings for base tables and
query outputs; the intermediate product built by a FROM clause is labelled by
:class:`~repro.core.values.FullName` pairs (``ℓ(τ:β)``).  Labels *may repeat*
— e.g. ``SELECT R.A, R.A FROM R`` — which is precisely the subtlety Example 2
turns on, so no uniqueness is enforced here.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple, Union

from .bag import Bag
from .values import FullName, Name, Record

__all__ = ["Table", "Label"]

#: A column label: a name for base tables and outputs, a full name inside FROM.
Label = Union[Name, FullName]


class Table:
    """An immutable labelled bag of records.

    ``columns`` and the bag arity must agree (unless the bag is empty, in
    which case the declared columns fix the arity).
    """

    __slots__ = ("_columns", "_bag", "_scan_rows", "_scan_fp")

    def __init__(self, columns: Sequence[Label], rows: Union[Bag, Iterable[Record]]):
        columns = tuple(columns)
        if not columns:
            raise ValueError("a table must have at least one column (arity k > 0)")
        bag = rows if isinstance(rows, Bag) else Bag(rows)
        if bag.arity is not None and bag.arity != len(columns):
            raise ValueError(
                f"table declared {len(columns)} columns but rows have arity {bag.arity}"
            )
        self._columns = columns
        self._bag = bag
        #: Engine-side memo (see repro.engine.binding.bind_plan): the rows
        #: converted to the executor's value domain.  A pure function of
        #: the immutable bag, computed lazily, excluded from eq/hash.
        self._scan_rows = None
        #: Build-cache content fingerprint over ``_scan_rows`` (same memo
        #: contract: lazy, content-pure, dies with the table).
        self._scan_fp = None

    @property
    def columns(self) -> Tuple[Label, ...]:
        return self._columns

    @property
    def bag(self) -> Bag:
        return self._bag

    @property
    def arity(self) -> int:
        return len(self._columns)

    def __len__(self) -> int:
        return len(self._bag)

    def __iter__(self):
        return iter(self._bag)

    def is_empty(self) -> bool:
        return self._bag.is_empty()

    def multiplicity(self, record: Record) -> int:
        return self._bag.multiplicity(record)

    def with_columns(self, columns: Sequence[Label]) -> "Table":
        """The same rows under different labels (renaming / relabelling)."""
        return Table(columns, self._bag)

    def distinct(self) -> "Table":
        """Duplicate elimination ε applied to the rows."""
        return Table(self._columns, self._bag.distinct_bag())

    # -- comparison ------------------------------------------------------------

    def same_as(self, other: "Table") -> bool:
        """The paper's correctness criterion (Section 4).

        True iff both tables have precisely the same columns (names, order)
        and precisely the same rows with the same multiplicities; row order
        is irrelevant by construction.
        """
        return self._columns == other._columns and self._bag == other._bag

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return self.same_as(other)

    def __hash__(self) -> int:
        return hash((self._columns, self._bag))

    # -- display ------------------------------------------------------------------

    def __repr__(self) -> str:
        return f"Table(columns={self._columns!r}, rows={len(self._bag)})"

    def pretty(self, max_rows: int = 20) -> str:
        """A fixed-width rendering for examples and reports."""
        headers = [str(label) for label in self._columns]
        rows = []
        for i, record in enumerate(self._bag):
            if i >= max_rows:
                break
            rows.append([repr(v) if isinstance(v, str) else str(v) for v in record])
        widths = [len(h) for h in headers]
        for row in rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        line = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
        out = [line]
        out.append("| " + " | ".join(h.ljust(w) for h, w in zip(headers, widths)) + " |")
        out.append(line)
        for row in rows:
            out.append(
                "| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |"
            )
        out.append(line)
        remaining = len(self._bag) - len(rows)
        if remaining > 0:
            out.append(f"... {remaining} more row(s)")
        return "\n".join(out)
