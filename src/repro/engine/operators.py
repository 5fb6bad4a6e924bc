"""Physical operators of the reference engine: a tiny iterator model.

Each operator exposes a generator, :meth:`PlanNode.iter_rows`, producing rows
given the stack of outer rows (needed because any operator may sit inside a
correlated subquery and reference enclosing rows through compiled
:class:`~repro.engine.expressions.ColumnRef` expressions); the materializing
:meth:`PlanNode.rows` is a convenience over it.  Streaming matters: a filter
above a cross join never holds the whole product in memory, and an EXISTS
probe stops after the first row.  Multisets are handled with
:class:`collections.Counter`, a representation intentionally different from
:class:`repro.core.bag.Bag`.

Besides the textbook operators (:class:`StaticScan`, :class:`CrossJoin`,
:class:`FilterOp`, :class:`ProjectOp`, :class:`DistinctOp`,
:class:`SetOpNode`), this module provides the physical machinery used by the
optimizer (:mod:`repro.engine.optimizer`):

* :class:`HashJoin` — equi-join of two children on typed key columns, with
  SQL's 3VL NULL handling (a NULL key never matches, exactly like the
  equality conjunct it replaces);
* :class:`GenericJoin` — worst-case-optimal multiway equi-join: instead of
  a tree of binary joins, all children are joined at once by intersecting
  per-attribute hash tries one join variable at a time (leapfrog style),
  so a cyclic equality pattern — a triangle, a 4-cycle — never materializes
  the quadratic intermediate a binary plan is forced through;
* :class:`CachedSubplan` — materializes an uncorrelated subplan once per
  execution instead of once per probing row;
* :class:`MemoSubplan` — memoizes a *correlated* FROM-subquery's rows per
  binding of the outer values it reads;
* :class:`RemapOp` — restores the FROM-order column layout above a
  cost-reordered join tree;
* :class:`HashSetOp` — streaming hash-based set operations, replacing the
  counted-multiset :class:`SetOpNode` the planner emits;
* the subquery predicates :class:`ExistsPred` / :class:`InPred` (the naive,
  re-executing forms the planner emits) and their optimized replacements
  :class:`ExistsProbe` (generator-based, early-terminating, result-cached
  when the subplan is closed) and :class:`SemiJoinProbe` (a frozenset probe
  set with 3VL-correct NULL handling for uncorrelated IN).

Every node also answers two static questions the optimizer asks:
:meth:`PlanNode.free_refs` — which ``(depth, index)`` positions of the outer
stack the subtree reads (depth ≥ 1; ``None`` when unknown, e.g. an opaque
filter callable) — and :meth:`PlanNode.width` — the output arity, when
derivable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import product as _iter_product
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .expressions import (
    OuterStack,
    Refs,
    Row,
    RowExpr,
    and3,
    compare,
    expr_refs,
    merge_refs,
    not3,
    or3,
)

__all__ = [
    "PlanNode",
    "StaticScan",
    "TableScan",
    "CrossJoin",
    "FilterOp",
    "ProjectOp",
    "DistinctOp",
    "SetOpNode",
    "HashSetOp",
    "HashJoin",
    "GenericJoin",
    "CachedSubplan",
    "MemoSubplan",
    "RemapOp",
    "ExistsPred",
    "ExistsProbe",
    "InPred",
    "SemiJoinProbe",
    "typed_key",
    "pred_refs",
]


def typed_key(values: Sequence[object]) -> Optional[Tuple]:
    """A hashable join/probe key matching ``compare("=")`` semantics.

    None (SQL NULL) anywhere makes the key unusable (equality would be
    unknown); the per-component string tag mirrors the engine's refusal to
    equate values across the string/number divide.
    """
    key = []
    for v in values:
        if v is None:
            return None
        key.append((isinstance(v, str), v))
    return tuple(key)


def _sub_refs(refs: Optional[Refs]) -> Optional[Refs]:
    """Map a subplan's free refs (depth ≥ 1) to the probing predicate's level:
    depth 1 is the probing row itself (depth 0 at the predicate's level)."""
    if refs is None:
        return None
    return frozenset((depth - 1, index) for depth, index in refs)


#: The (depth, index) positions a filter predicate reads; None if opaque.
#: Predicates follow the same refs() protocol as row expressions.
pred_refs = expr_refs


def _outer_part(refs: Optional[Refs]) -> Optional[Refs]:
    if refs is None:
        return None
    return frozenset(r for r in refs if r[0] >= 1)


def _in_fold(values: Row, sub_rows) -> Optional[bool]:
    """The 3VL fold of ``t̄ IN Q``: the disjunction over Q's rows of the
    conjunction of per-position equalities, with short-circuits."""
    result: Optional[bool] = False
    for sub_row in sub_rows:
        comparison: Optional[bool] = True
        for a, b in zip(values, sub_row):
            comparison = and3(comparison, compare("=", a, b))
            if comparison is False:
                break
        result = or3(result, comparison)
        if result is True:
            break
    return result


class PlanNode:
    """Base class of all physical operators."""

    def iter_rows(self, outers: OuterStack) -> Iterator[Row]:
        raise NotImplementedError

    def rows(self, outers: OuterStack) -> List[Row]:
        return list(self.iter_rows(outers))

    def free_refs(self) -> Optional[Refs]:
        """Outer-stack positions (depth ≥ 1) the subtree reads; None if unknown.

        Memoized per node: the answer is purely structural (predicates and
        children never change after construction — binding only installs
        scan rows), and the optimizer asks repeatedly along nested paths,
        which would otherwise make the recursion quadratic.
        """
        memo = getattr(self, "_free_refs_memo", False)
        if memo is False:
            memo = self._free_refs()
            self._free_refs_memo = memo
        return memo

    def _free_refs(self) -> Optional[Refs]:
        raise NotImplementedError

    def width(self) -> Optional[int]:
        """Output arity, or None when it cannot be derived."""
        return None


@dataclass
class StaticScan(PlanNode):
    """Scan of a materialized base table (rows captured at plan bind time).

    ``arity`` is recorded by the planner so the width is known even for an
    empty table (the data alone cannot tell).
    """

    data: List[Row]
    arity: Optional[int] = None

    def iter_rows(self, outers: OuterStack) -> Iterator[Row]:
        return iter(self.data)

    def rows(self, outers: OuterStack) -> List[Row]:
        return self.data

    def _free_refs(self) -> Refs:
        return frozenset()

    def width(self) -> Optional[int]:
        if self.arity is not None:
            return self.arity
        return len(self.data[0]) if self.data else None


@dataclass
class TableScan(PlanNode):
    """Scan of a base table bound to row data *per execution*, not per plan.

    Unlike :class:`StaticScan` (which captures the rows of one database at
    plan time), a ``TableScan`` names the table and leaves ``data`` unbound;
    :func:`repro.engine.binding.bind_plan` installs the rows of the current
    database before each execution.  This is what makes a compiled plan
    reusable across databases — the basis of the :class:`~repro.engine.Engine`
    plan cache used by the trial campaigns, where the same query is never
    re-planned for every trial database.
    """

    table: str
    arity: int
    data: Optional[List[Row]] = field(default=None, compare=False)
    #: Row count seen the last time this scan was bound, recorded by the
    #: unbind walk (and seeded by the engine on freshly planned scans):
    #: the optimizer's cardinality feedback for unbound plans.
    observed_rows: Optional[int] = field(default=None, compare=False, repr=False)

    def iter_rows(self, outers: OuterStack) -> Iterator[Row]:
        return iter(self.rows(outers))

    def rows(self, outers: OuterStack) -> List[Row]:
        if self.data is None:
            raise RuntimeError(
                f"TableScan({self.table!r}) executed without a bound database "
                f"(see repro.engine.binding.bind_plan)"
            )
        return self.data

    def _free_refs(self) -> Refs:
        return frozenset()

    def width(self) -> int:
        return self.arity


@dataclass
class CrossJoin(PlanNode):
    """Cartesian product of one or more children, concatenating rows."""

    children: List[PlanNode]

    def iter_rows(self, outers: OuterStack) -> Iterator[Row]:
        materialized: List[List[Row]] = []
        for child in self.children:
            rows = child.rows(outers)
            if not rows:
                return
            materialized.append(rows)
        for combo in _iter_product(*materialized):
            row: Row = combo[0]
            for part in combo[1:]:
                row = row + part
            yield row

    def _free_refs(self) -> Optional[Refs]:
        return merge_refs(*(child.free_refs() for child in self.children))

    def width(self) -> Optional[int]:
        total = 0
        for child in self.children:
            w = child.width()
            if w is None:
                return None
            total += w
        return total


@dataclass
class FilterOp(PlanNode):
    """Keeps the rows for which the predicate returns True (not None/False)."""

    child: PlanNode
    predicate: Callable[[Row, OuterStack], Optional[bool]]

    def iter_rows(self, outers: OuterStack) -> Iterator[Row]:
        predicate = self.predicate
        for row in self.child.iter_rows(outers):
            if predicate(row, outers) is True:
                yield row

    def _free_refs(self) -> Optional[Refs]:
        return merge_refs(
            self.child.free_refs(), _outer_part(pred_refs(self.predicate))
        )

    def width(self) -> Optional[int]:
        return self.child.width()


@dataclass
class ProjectOp(PlanNode):
    """Evaluates a list of output expressions per input row."""

    child: PlanNode
    expressions: Sequence[RowExpr]

    def iter_rows(self, outers: OuterStack) -> Iterator[Row]:
        expressions = self.expressions
        for row in self.child.iter_rows(outers):
            yield tuple(expr(row, outers) for expr in expressions)

    def _free_refs(self) -> Optional[Refs]:
        return merge_refs(
            self.child.free_refs(),
            *(_outer_part(expr_refs(expr)) for expr in self.expressions),
        )

    def width(self) -> int:
        return len(self.expressions)


@dataclass
class DistinctOp(PlanNode):
    """Removes duplicates, keeping first-seen order."""

    child: PlanNode

    def iter_rows(self, outers: OuterStack) -> Iterator[Row]:
        seen = set()
        for row in self.child.iter_rows(outers):
            if row not in seen:
                seen.add(row)
                yield row

    def _free_refs(self) -> Optional[Refs]:
        return self.child.free_refs()

    def width(self) -> Optional[int]:
        return self.child.width()


@dataclass
class SetOpNode(PlanNode):
    """UNION / INTERSECT / EXCEPT with and without ALL, via Counters."""

    op: str
    all: bool
    left: PlanNode
    right: PlanNode

    def iter_rows(self, outers: OuterStack) -> Iterator[Row]:
        left_counts = Counter(self.left.iter_rows(outers))
        right_counts = Counter(self.right.iter_rows(outers))
        result: Counter = Counter()
        if self.op == "UNION":
            result = left_counts + right_counts
            if not self.all:
                result = Counter(dict.fromkeys(result, 1))
        elif self.op == "INTERSECT":
            result = left_counts & right_counts
            if not self.all:
                result = Counter(dict.fromkeys(result, 1))
        elif self.op == "EXCEPT":
            if self.all:
                result = left_counts - right_counts
            else:
                dedup_left = Counter(dict.fromkeys(left_counts, 1))
                result = dedup_left - right_counts
        else:  # pragma: no cover - guarded at compile time
            raise ValueError(f"unknown set operation {self.op}")
        return iter(result.elements())

    def _free_refs(self) -> Optional[Refs]:
        return merge_refs(self.left.free_refs(), self.right.free_refs())

    def width(self) -> Optional[int]:
        return self.left.width() if self.left.width() is not None else self.right.width()


@dataclass
class HashJoin(PlanNode):
    """Equi-join: hashes the right child, probes with the left child.

    Replaces ``σ_{l=r}(L × R)``: rows whose key contains NULL are dropped on
    either side (the equality they stand in for would be unknown), and keys
    are typed so that e.g. ``1`` and ``'1'`` never match, exactly like
    :func:`repro.engine.expressions.compare`.  Output rows are ``left +
    right`` concatenations, preserving the FROM-clause column layout.
    """

    left: PlanNode
    right: PlanNode
    left_keys: Tuple[int, ...]
    right_keys: Tuple[int, ...]
    #: Build side, memoized per execution when the right child is closed
    #: (cleared by the binding layer, shareable across executions through
    #: the build-side cache of :mod:`repro.engine.binding`).
    _table: Optional[dict] = field(default=None, repr=False, compare=False)
    _closed_build: Optional[bool] = field(default=None, repr=False, compare=False)
    #: Row count recorded with the cache entry ``_table`` was restored
    #: from, replayed as cardinality feedback without re-walking it.
    _restored_rows: Optional[int] = field(default=None, repr=False, compare=False)

    def _build(self, outers: OuterStack) -> dict:
        table: dict = {}
        right_keys = self.right_keys
        for row in self.right.iter_rows(outers):
            key = typed_key([row[i] for i in right_keys])
            if key is None:
                continue
            table.setdefault(key, []).append(row)
        return table

    def build_table(self, outers: OuterStack) -> dict:
        """The probe table, built at most once per execution when closed."""
        if self._closed_build is None:
            self._closed_build = self.right.free_refs() == frozenset()
        if not self._closed_build:
            return self._build(outers)
        if self._table is None:
            self._table = self._build(outers)
        return self._table

    def iter_rows(self, outers: OuterStack) -> Iterator[Row]:
        table = self.build_table(outers)
        if not table:
            return
        left_keys = self.left_keys
        for row in self.left.iter_rows(outers):
            key = typed_key([row[i] for i in left_keys])
            if key is None:
                continue
            for match in table.get(key, ()):
                yield row + match

    def _free_refs(self) -> Optional[Refs]:
        return merge_refs(self.left.free_refs(), self.right.free_refs())

    def width(self) -> Optional[int]:
        left = self.left.width()
        right = self.right.width()
        if left is None or right is None:
            return None
        return left + right


@dataclass
class GenericJoin(PlanNode):
    """Worst-case-optimal multiway equi-join (generic join / leapfrog).

    Replaces a whole multi-child FROM whose cross-child equality graph is
    cyclic.  Each equivalence class of equated columns is one *join
    variable*; every child builds a nested hash trie keyed by the variables
    it binds (in global variable order), and enumeration assigns variables
    one at a time by intersecting the tries' current levels — iterating the
    smallest level and probing the others, the classic leapfrog step.  A
    triangle query therefore does work proportional to the joinable keys
    instead of materializing the quadratic intermediate any binary join
    tree must produce on skewed data.

    Semantics match the equality conjuncts the variables consume exactly:
    a row whose variable column is NULL can never match (the equality would
    be unknown, as in :class:`HashJoin`), keys are typed so ``1`` and
    ``'1'`` differ, and typed equality is transitive on non-NULLs, so
    "every column of the class equal" is exactly the conjunction of the
    original (connected) equality edges.  Output rows concatenate child
    rows in FROM order with full bag multiplicity — the cross product of
    each child's matching rows per variable assignment — so no
    :class:`RemapOp` is ever needed on top.
    """

    children: List[PlanNode]
    #: One entry per join variable, in elimination order: the sorted
    #: ``(child, local column)`` positions the variable binds.  Every
    #: variable spans at least two children (a single-child equality is an
    #: ordinary pushed filter, not a variable).
    variables: Tuple[Tuple[Tuple[int, int], ...], ...]
    #: Per-child hash tries, memoized per execution when every child is
    #: closed (cleared by the binding layer, shareable across executions
    #: through the build-side cache of :mod:`repro.engine.binding`).
    _tries: Optional[List[object]] = field(default=None, repr=False, compare=False)
    _closed_build: Optional[bool] = field(default=None, repr=False, compare=False)
    #: Row count recorded with the cache entry ``_tries`` was restored
    #: from, replayed as cardinality feedback without re-walking it.
    _restored_rows: Optional[int] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        # Purely structural, derived once: which variables each child binds
        # (its trie's level order = global variable order) and, per level,
        # which children participate in the intersection.
        per_child: List[List[Tuple[int, ...]]] = [[] for _ in self.children]
        var_children: List[Tuple[int, ...]] = []
        for var in self.variables:
            cols: Dict[int, List[int]] = {}
            for child, col in var:
                cols.setdefault(child, []).append(col)
            var_children.append(tuple(sorted(cols)))
            for child, local in cols.items():
                per_child[child].append(tuple(local))
        self._child_cols = [tuple(levels) for levels in per_child]
        self._var_children = tuple(var_children)

    def _build_tries(self, children_rows: List[List[Row]]) -> List[object]:
        """One trie per child: nested dicts keyed by the child's variables
        in order, leaf lists holding the rows (bag multiplicity); children
        binding no variable contribute their plain row list.  Rows with a
        NULL variable column — or two same-variable columns that differ —
        can never match and are left out."""
        tries: List[object] = []
        for levels, rows in zip(self._child_cols, children_rows):
            if not levels:
                tries.append(rows)
                continue
            depth = len(levels)
            root: dict = {}
            for row in rows:
                keys = []
                for cols in levels:
                    value = row[cols[0]]
                    if value is None:
                        break
                    key = (isinstance(value, str), value)
                    for extra in cols[1:]:
                        other = row[extra]
                        if other is None or (isinstance(other, str), other) != key:
                            break
                    else:
                        keys.append(key)
                        continue
                    break
                if len(keys) < depth:
                    continue
                node = root
                for key in keys[:-1]:
                    node = node.setdefault(key, {})
                node.setdefault(keys[-1], []).append(row)
            tries.append(root)
        return tries

    def build_tries(self, outers: OuterStack) -> List[object]:
        """The per-child tries, built at most once per execution when every
        child is closed (mirrors :meth:`HashJoin.build_table`)."""
        if self._closed_build is None:
            self._closed_build = self.free_refs() == frozenset()
        if not self._closed_build:
            return self._build_tries([c.rows(outers) for c in self.children])
        if self._tries is None:
            self._tries = self._build_tries(
                [c.rows(outers) for c in self.children]
            )
        return self._tries

    def _solve(self, level: int, positions: List[object]) -> Iterator[Row]:
        """Assign variable ``level`` by intersecting the involved children's
        current trie levels, then recurse; at the bottom every position is a
        row list and the concatenated cross product streams out."""
        if level == len(self.variables):
            for combo in _iter_product(*positions):
                row: Row = combo[0]
                for part in combo[1:]:
                    row = row + part
                yield row
            return
        involved = self._var_children[level]
        smallest = min(involved, key=lambda c: len(positions[c]))
        rest = [c for c in involved if c != smallest]
        for key, descended in positions[smallest].items():
            branch = list(positions)
            branch[smallest] = descended
            for c in rest:
                nxt = positions[c].get(key)
                if nxt is None:
                    break
                branch[c] = nxt
            else:
                yield from self._solve(level + 1, branch)

    def iter_rows(self, outers: OuterStack) -> Iterator[Row]:
        tries = self.build_tries(outers)
        if any(not trie for trie in tries):
            # An empty trie (or an empty variable-free child) admits no
            # combination at all.
            return
        yield from self._solve(0, list(tries))

    def _free_refs(self) -> Optional[Refs]:
        return merge_refs(*(child.free_refs() for child in self.children))

    def width(self) -> Optional[int]:
        total = 0
        for child in self.children:
            w = child.width()
            if w is None:
                return None
            total += w
        return total


@dataclass
class CachedSubplan(PlanNode):
    """Materializes a *closed* subplan (no outer references) exactly once.

    A closed EXISTS/IN subquery re-executed per outer row is the single
    largest cost of the naive engine; this node runs it on first demand and
    replays the rows afterwards.
    """

    child: PlanNode
    _cache: Optional[List[Row]] = field(default=None, repr=False, compare=False)

    def iter_rows(self, outers: OuterStack) -> Iterator[Row]:
        return iter(self.rows(outers))

    def rows(self, outers: OuterStack) -> List[Row]:
        if self._cache is None:
            # The child is closed, so the outer stack is irrelevant.
            self._cache = self.child.rows(())
        return self._cache

    def _free_refs(self) -> Optional[Refs]:
        return self.child.free_refs()

    def width(self) -> Optional[int]:
        return self.child.width()


@dataclass
class MemoSubplan(PlanNode):
    """Memoizes a *correlated* subplan's rows per binding of the outer values
    it reads.

    A correlated FROM-subquery re-executes for every probing row of its
    enclosing correlated predicate, yet its rows are a pure function of the
    outer values at its free reference positions; bindings repeat across
    probing rows, so each distinct binding is evaluated once per execution.
    """

    child: PlanNode
    #: Sorted (depth, index) positions of the outer values the child reads.
    memo_refs: Tuple[Tuple[int, int], ...]
    _memo: dict = field(default_factory=dict, repr=False, compare=False)

    def iter_rows(self, outers: OuterStack) -> Iterator[Row]:
        return iter(self.rows(outers))

    def rows(self, outers: OuterStack) -> List[Row]:
        key = tuple(outers[-d][i] for d, i in self.memo_refs)
        rows = self._memo.get(key)
        if rows is None:
            rows = self._memo[key] = self.child.rows(outers)
        return rows

    def _free_refs(self) -> Optional[Refs]:
        return self.child.free_refs()

    def width(self) -> Optional[int]:
        return self.child.width()


@dataclass
class RemapOp(PlanNode):
    """Permutes columns: ``output[i] = input[mapping[i]]``.

    The join-order optimizer reorders FROM children for cost but must keep
    the output row layout bit-identical to FROM order (projection indices,
    correlated subquery references and filter predicates were all compiled
    against it); a ``RemapOp`` above the reordered join tree restores it.
    """

    child: PlanNode
    mapping: Tuple[int, ...]

    def iter_rows(self, outers: OuterStack) -> Iterator[Row]:
        mapping = self.mapping
        for row in self.child.iter_rows(outers):
            yield tuple(row[j] for j in mapping)

    def _free_refs(self) -> Optional[Refs]:
        return self.child.free_refs()

    def width(self) -> int:
        return len(self.mapping)


@dataclass
class HashSetOp(PlanNode):
    """Hash-based UNION / INTERSECT / EXCEPT, streaming the left child.

    The optimized replacement for :class:`SetOpNode`: instead of counting
    both children and expanding a result multiset, only the side that must
    be fully known is materialized (the right child's counts for INTERSECT/
    EXCEPT, a seen-set for DISTINCT variants) and rows stream out as the
    left child produces them — so an enclosing EXISTS stops the whole
    pipeline at the first row.  Rows are their own hash keys: SQL NULL
    (``None``) is one key value, matching the NOT-DISTINCT row equality the
    set operations use (NULLs equal each other here, unlike in ``=``).
    Bag semantics are unchanged: UNION ALL concatenates, INTERSECT ALL
    keeps minimum multiplicities, EXCEPT ALL subtracts, and the DISTINCT
    variants emit each qualifying row once.
    """

    op: str
    all: bool
    left: PlanNode
    right: PlanNode

    def iter_rows(self, outers: OuterStack) -> Iterator[Row]:
        if self.op == "UNION":
            if self.all:
                yield from self.left.iter_rows(outers)
                yield from self.right.iter_rows(outers)
                return
            seen = set()
            for side in (self.left, self.right):
                for row in side.iter_rows(outers):
                    if row not in seen:
                        seen.add(row)
                        yield row
            return
        if self.op == "INTERSECT":
            if self.all:
                remaining = Counter(self.right.iter_rows(outers))
                for row in self.left.iter_rows(outers):
                    if remaining[row] > 0:
                        remaining[row] -= 1
                        yield row
                return
            right_rows = set(self.right.iter_rows(outers))
            emitted = set()
            for row in self.left.iter_rows(outers):
                if row in right_rows and row not in emitted:
                    emitted.add(row)
                    yield row
            return
        if self.op == "EXCEPT":
            right_counts = Counter(self.right.iter_rows(outers))
            if self.all:
                for row in self.left.iter_rows(outers):
                    if right_counts[row] > 0:
                        right_counts[row] -= 1
                    else:
                        yield row
                return
            emitted = set()
            for row in self.left.iter_rows(outers):
                if right_counts[row] == 0 and row not in emitted:
                    emitted.add(row)
                    yield row
            return
        raise ValueError(f"unknown set operation {self.op}")  # pragma: no cover

    def _free_refs(self) -> Optional[Refs]:
        return merge_refs(self.left.free_refs(), self.right.free_refs())

    def width(self) -> Optional[int]:
        left = self.left.width()
        return left if left is not None else self.right.width()


# -- subquery predicates -----------------------------------------------------


class ExistsPred:
    """Naive ``EXISTS Q``: fully materializes the subquery per probing row."""

    __slots__ = ("subplan",)

    def __init__(self, subplan: PlanNode):
        self.subplan = subplan

    def __call__(self, row: Row, outers: OuterStack) -> bool:
        return bool(self.subplan.rows(outers + (row,)))

    def refs(self) -> Optional[Refs]:
        return _sub_refs(self.subplan.free_refs())


class ExistsProbe:
    """Optimized ``EXISTS Q``: streams the subquery and stops at the first
    row.  When the subplan is closed, the boolean is computed only once;
    when it is correlated, results are memoized per *binding* — the tuple of
    outer values at the subplan's free reference positions, the only inputs
    the subquery's result can depend on."""

    __slots__ = ("subplan", "closed", "_known", "_refs", "_memo")

    def __init__(
        self,
        subplan: PlanNode,
        closed: bool = False,
        memo_refs: Optional[Refs] = None,
    ):
        self.subplan = subplan
        self.closed = closed
        self._known: Optional[bool] = None
        self._refs = tuple(sorted(memo_refs)) if memo_refs else None
        self._memo: dict = {}

    def _binding(self, row: Row, outers: OuterStack) -> Tuple:
        return tuple(
            row[i] if d == 0 else outers[-d][i] for d, i in self._refs
        )

    def _probe(self, row: Row, outers: OuterStack) -> bool:
        for _ in self.subplan.iter_rows(outers + (row,)):
            return True
        return False

    def __call__(self, row: Row, outers: OuterStack) -> bool:
        if self.closed:
            if self._known is None:
                self._known = self._probe(row, outers)
            return self._known
        if self._refs is None:
            return self._probe(row, outers)
        key = self._binding(row, outers)
        result = self._memo.get(key)
        if result is None:
            result = self._memo[key] = self._probe(row, outers)
        return result

    def refs(self) -> Optional[Refs]:
        return _sub_refs(self.subplan.free_refs())


class InPred:
    """``t̄ [NOT] IN Q``: folds 3VL equality over the subquery's rows.

    Without ``memo_refs`` this is the naive form the planner emits: the
    subquery is re-executed per probing row.  The optimizer supplies
    ``memo_refs`` for correlated subplans, caching the (distinct) subquery
    rows per binding of the referenced outer values — a disjunction cannot
    change under duplicate elimination, so distinct rows suffice."""

    __slots__ = ("exprs", "subplan", "negated", "_refs", "_memo")

    def __init__(
        self,
        exprs: Sequence[RowExpr],
        subplan: PlanNode,
        negated: bool,
        memo_refs: Optional[Refs] = None,
    ):
        self.exprs = tuple(exprs)
        self.subplan = subplan
        self.negated = negated
        self._refs = tuple(sorted(memo_refs)) if memo_refs else None
        self._memo: dict = {}

    def _sub_rows(self, row: Row, outers: OuterStack) -> Sequence[Row]:
        if self._refs is None:
            return self.subplan.rows(outers + (row,))
        key = tuple(row[i] if d == 0 else outers[-d][i] for d, i in self._refs)
        rows = self._memo.get(key)
        if rows is None:
            rows = self._memo[key] = list(
                dict.fromkeys(self.subplan.rows(outers + (row,)))
            )
        return rows

    def __call__(self, row: Row, outers: OuterStack) -> Optional[bool]:
        values = tuple(expr(row, outers) for expr in self.exprs)
        result = _in_fold(values, self._sub_rows(row, outers))
        return not3(result) if self.negated else result

    def refs(self) -> Optional[Refs]:
        return merge_refs(
            _sub_refs(self.subplan.free_refs()),
            *(expr_refs(expr) for expr in self.exprs),
        )


class SemiJoinProbe:
    """Optimized ``t̄ [NOT] IN Q`` for a *closed* Q: a frozenset probe.

    The subquery's distinct rows are materialized once and split into a
    frozenset of typed NULL-free keys (the fast path) plus the rows that
    contain NULL.  3VL is preserved exactly:

    * probe values without NULL: True on a key hit; otherwise unknown if
      some NULL-containing row matches on every non-NULL position, else
      False;
    * probe values with NULL: the full 3VL fold over the (cached, distinct)
      rows — duplicates cannot change a disjunction, so distinct suffices.
    """

    __slots__ = (
        "exprs",
        "subplan",
        "negated",
        "_keys",
        "_null_rows",
        "_rows",
        "_harvested",
    )

    def __init__(self, exprs: Sequence[RowExpr], subplan: PlanNode, negated: bool):
        self.exprs = tuple(exprs)
        self.subplan = subplan
        self.negated = negated
        self._keys: Optional[frozenset] = None
        self._null_rows: Optional[List[Row]] = None
        self._rows: Optional[List[Row]] = None
        #: The last tuple handed to (or restored from) the build-side
        #: cache, kept so repeat harvests return the identical object.
        self._harvested: Optional[tuple] = None

    def _materialize(self) -> None:
        distinct = list(dict.fromkeys(self.subplan.rows(())))
        keys = []
        null_rows = []
        for sub_row in distinct:
            key = typed_key(sub_row)
            if key is None:
                null_rows.append(sub_row)
            else:
                keys.append(key)
        self._rows = distinct
        self._keys = frozenset(keys)
        self._null_rows = null_rows

    def __call__(self, row: Row, outers: OuterStack) -> Optional[bool]:
        if self._rows is None:
            self._materialize()
        values = tuple(expr(row, outers) for expr in self.exprs)
        key = typed_key(values)
        if key is not None:
            if key in self._keys:
                result: Optional[bool] = True
            else:
                result = None if self._maybe_null_match(values) else False
        else:
            result = _in_fold(values, self._rows)
        return not3(result) if self.negated else result

    def _maybe_null_match(self, values: Row) -> bool:
        """Whether some NULL-containing row is 3VL-unknown-equal to values."""
        for sub_row in self._null_rows:
            if all(
                b is None or compare("=", a, b) is True
                for a, b in zip(values, sub_row)
            ):
                return True
        return False

    def refs(self) -> Optional[Refs]:
        return merge_refs(*(expr_refs(expr) for expr in self.exprs))
