"""Predicate encoding for Duet (§IV-C "Encoding" and §IV-F of the paper).

Each column owns one *predicate block* in the model input.  A block encodes
up to ``P`` predicates on that column, each predicate being:

* a one-hot vector over the five operators ``=, >, <, >=, <=`` plus one
  leading *presence* bit (all zeros = wildcard, i.e. the column is not
  constrained — the paper's wildcard-skipping), and
* an encoding of the predicate literal's dictionary code — ``binary``
  (``ceil(log2(NDV))`` bits, the paper default), ``onehot`` (NDV bits), or
  ``embedding`` for very large domains (the value part is then looked up in
  a learned embedding owned by the model).

Queries are first translated into *canonical code-space predicates*: the raw
literal of each predicate is mapped onto the column's dictionary through the
inclusive code interval it selects, so that training (Algorithm 1 samples
directly in code space) and inference see exactly the same representation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.store import DomainGrowthError
from ..data.table import Table
from ..workload.predicates import Operator, Predicate
from ..workload.query import Query
from .config import DuetConfig

__all__ = [
    "NUM_OPERATORS",
    "OPERATOR_FEATURE_WIDTH",
    "binary_width",
    "resolve_value_strategy",
    "ColumnPredicateEncoder",
    "CanonicalPredicate",
    "CodeIntervals",
    "IntervalWalk",
    "QueryCodec",
]

#: number of predicate operators supported (=, >, <, >=, <=)
NUM_OPERATORS = 5
#: presence bit + operator one-hot
OPERATOR_FEATURE_WIDTH = 1 + NUM_OPERATORS

_OP_EQ = Operator.EQ.index
_OP_GE = Operator.GE.index
_OP_LE = Operator.LE.index

#: operator -> stable index, as a dict (Operator.index is a linear scan)
_OP_INDEX = {op: op.index for op in Operator}
#: bound on each (column, operator) literal cache of a long-lived service
_LITERAL_CACHE_LIMIT = 262144


def binary_width(num_distinct: int) -> int:
    """Number of bits of the binary code encoding for a domain of ``num_distinct``."""
    if num_distinct <= 1:
        return 1
    return int(np.ceil(np.log2(num_distinct)))


def resolve_value_strategy(num_distinct: int, config: DuetConfig) -> str:
    """Pick the literal encoding for a column.

    Follows the paper: the configured strategy is used except for very large
    domains, which fall back to a learned embedding.
    """
    if config.value_encoding == "embedding":
        return "embedding"
    if num_distinct > config.embedding_threshold:
        return "embedding"
    return config.value_encoding


@dataclass(frozen=True)
class CanonicalPredicate:
    """A predicate expressed in code space: ``(operator index, literal code)``."""

    op_index: int
    code: int


@dataclass(frozen=True)
class CodeIntervals:
    """The code interval each query of a batch admits on each constrained column.

    Duet's predicates (``=, <, <=, >, >=``) and any AND of them on one column
    select one inclusive code interval, so Algorithm 3's zero-out needs two
    integers per (query, column), not a dense mask over the domain.
    ``columns`` lists, ascending, the columns some query of the batch
    constrains; ``low[q, j]``/``high[q, j]`` bound the codes query ``q``
    admits on ``columns[j]``.  A query that leaves that column free gets its
    full domain ``[0, NDV - 1]``, and an unsatisfiable conjunction has
    ``low > high``.  Columns no query constrains are absent: their factor is
    exactly 1.
    """

    columns: np.ndarray
    low: np.ndarray
    high: np.ndarray
    #: NDV of every column of the table (not only the constrained ones)
    num_distinct: np.ndarray

    def take(self, rows: np.ndarray) -> "CodeIntervals":
        """The intervals of a subset of the batch's queries (same columns)."""
        return CodeIntervals(self.columns, self.low[rows], self.high[rows],
                             self.num_distinct)

    def dense_masks(self) -> list[np.ndarray | None]:
        """Per-column float64 ``(batch, NDV)`` valid-value masks.

        The one derivation of dense masks, for the differentiable paths (the
        tape and the training steps): ``None`` for a column no query
        constrains, else element ``[q, code]`` is 1 when ``code`` lies in
        ``[low[q], high[q]]``.
        """
        masks: list[np.ndarray | None] = [None] * self.num_distinct.size
        for slot, column in enumerate(self.columns):
            codes = np.arange(self.num_distinct[column])
            admitted = ((codes >= self.low[:, slot, None])
                        & (codes <= self.high[:, slot, None]))
            masks[column] = admitted.astype(np.float64)
        return masks


def _canonical(low: int, high: int, last: int) -> tuple[int, int] | None:
    """Canonical ``(operator index, code)`` of an interval on ``[0, last]``.

    ``None`` when the interval covers the whole domain (the predicate does
    not constrain the column).  An empty interval keeps an equality on the
    nearest code, so the model still sees a constraint; the zero-out then
    makes the factor 0.
    """
    if low > high:
        return _OP_EQ, min(max(low, 0), last)
    if low == 0 and high == last:
        return None
    if low == high:
        return _OP_EQ, low
    if low == 0:
        return _OP_LE, high
    # Two-sided intervals only arise from multiple predicates per column,
    # each of which is canonicalised separately, so this branch is not
    # reachable from a single predicate; guard anyway.
    return _OP_GE, low


class IntervalWalk:
    """A cached scalar walk from a query's predicates to code intervals.

    The one predicate translation of the serving path: the batch translate
    (:meth:`QueryCodec.translate_batch`) and the estimate cache's key
    (:class:`~repro.serving.QueryKeyEncoder`) both read it.  Each literal is
    looked up in a per-(column, operator) cache holding the predicate's
    inclusive code interval (exactly :meth:`Predicate.code_interval`) and
    its canonical ``(operator, code)`` pair.  Serving traffic repeats
    literals heavily, so a predicate usually costs one dict hit.  The cache
    depends only on the columns' sorted distinct values, so it stays valid
    for any table with identical domains (see :meth:`QueryCodec.rebind`).
    """

    def __init__(self, table: Table) -> None:
        self.table = table
        self._index = {name: index for index, name in enumerate(table.column_names)}
        self._cache: list[list[dict]] = [[{} for _ in range(NUM_OPERATORS)]
                                         for _ in table.columns]

    def bounds(self, query: Query) -> list[tuple[int, int, int, int, int]]:
        """``(column, low, high, op, code)`` of each predicate bounding its column.

        In predicate order.  Whole-domain predicates constrain nothing and
        are skipped; an empty interval keeps its raw bounds (``low > high``).
        An unknown column raises the table's ``KeyError``.
        """
        index = self._index
        cache = self._cache
        entries = []
        for predicate in query.predicates:
            column = index.get(predicate.column)
            if column is None:
                self.table.column_index(predicate.column)  # raises KeyError
            by_literal = cache[column][_OP_INDEX[predicate.operator]]
            entry = by_literal.get(predicate.value)
            if entry is None:
                entry = self._fill(by_literal, column, predicate)
            if entry:
                entries.append(entry)
        return entries

    def _fill(self, by_literal: dict, column: int, predicate: Predicate) -> tuple:
        """Translate one uncached literal; ``()`` marks a whole-domain one."""
        data = self.table.column(column)
        low, high = predicate.code_interval(data)
        canonical = _canonical(low, high, data.num_distinct - 1)
        entry = () if canonical is None else (column, low, high, *canonical)
        if len(by_literal) >= _LITERAL_CACHE_LIMIT:  # bound a service's footprint
            by_literal.clear()
        by_literal[predicate.value] = entry
        return entry


class ColumnPredicateEncoder:
    """Encodes the predicates of one column into its fixed-width block."""

    def __init__(self, column_index: int, num_distinct: int, config: DuetConfig) -> None:
        self.column_index = column_index
        self.num_distinct = num_distinct
        self.strategy = resolve_value_strategy(num_distinct, config)
        if self.strategy == "binary":
            self.value_width = binary_width(num_distinct)
        elif self.strategy == "onehot":
            self.value_width = num_distinct
        else:  # embedding — the value part is produced by the model
            self.value_width = config.embedding_dim
        #: width of one encoded predicate (operator features + value features)
        self.predicate_width = OPERATOR_FEATURE_WIDTH + self.value_width

    # ------------------------------------------------------------------
    @property
    def needs_embedding(self) -> bool:
        return self.strategy == "embedding"

    # ------------------------------------------------------------------
    def encode_operator_features(self, ops: np.ndarray) -> np.ndarray:
        """Presence bit + operator one-hot; ``op == -1`` means wildcard."""
        ops = np.asarray(ops, dtype=np.int64)
        features = np.zeros(ops.shape + (OPERATOR_FEATURE_WIDTH,), dtype=np.float64)
        present = ops >= 0
        features[..., 0] = present
        clipped = np.where(present, ops, 0)
        one_hot = np.eye(NUM_OPERATORS)[clipped] * present[..., None]
        features[..., 1:] = one_hot
        return features

    def encode_value_features(self, codes: np.ndarray) -> np.ndarray:
        """Literal encoding for non-embedding strategies; ``code == -1`` -> zeros."""
        if self.needs_embedding:
            raise RuntimeError("embedding columns are encoded by the model, "
                               "not by the static encoder")
        codes = np.asarray(codes, dtype=np.int64)
        present = codes >= 0
        clipped = np.where(present, codes, 0)
        if self.strategy == "binary":
            bits = ((clipped[..., None] >> np.arange(self.value_width)) & 1)
            return bits.astype(np.float64) * present[..., None]
        one_hot = np.eye(self.num_distinct)[clipped]
        return one_hot * present[..., None]

    def encode(self, codes: np.ndarray, ops: np.ndarray) -> np.ndarray:
        """Full per-predicate encoding ``(..., predicate_width)`` (non-embedding)."""
        operator_features = self.encode_operator_features(ops)
        value_features = self.encode_value_features(codes)
        return np.concatenate([operator_features, value_features], axis=-1)


class QueryCodec:
    """Translates :class:`Query` objects into code-space arrays and intervals."""

    def __init__(self, table: Table, config: DuetConfig) -> None:
        self.table = table
        self.config = config
        self.max_predicates = (config.max_predicates_per_column
                               if config.multi_predicate else 1)
        self.encoders = [
            ColumnPredicateEncoder(index, column.num_distinct, config)
            for index, column in enumerate(table.columns)
        ]
        self._ndv = np.array([column.num_distinct for column in table.columns],
                             dtype=np.int64)
        self._walk = IntervalWalk(table)

    # ------------------------------------------------------------------
    def ensure_compatible(self, table: Table) -> None:
        """Check that ``table``'s domains match the ones this codec encodes.

        The model's predicate encodings and output bins are sized to each
        column's NDV and code order, so a table is only interchangeable when
        every column carries the *identical* sorted distinct values.  Raises
        a typed :class:`~repro.data.DomainGrowthError` naming the offending
        columns otherwise — the caller must cold-train a new model.
        """
        if table.column_names != self.table.column_names:
            raise DomainGrowthError(
                f"table {table.name!r} has columns {table.column_names} but the "
                f"codec encodes {self.table.column_names}",
                columns=tuple(set(table.column_names)
                              ^ set(self.table.column_names)))
        changed = [
            ours.name
            for ours, theirs in zip(self.table.columns, table.columns)
            if ours.num_distinct != theirs.num_distinct
            or not np.array_equal(ours.distinct_values, theirs.distinct_values)
        ]
        if changed:
            raise DomainGrowthError(
                f"columns {changed} of table {table.name!r} have different "
                f"domains than the ones this model was trained on; domain "
                f"growth changes the encoding and output shapes — train a new "
                f"model (DuetTrainer) instead of rebinding/fine-tuning",
                columns=tuple(changed))

    def rebind(self, table: Table) -> None:
        """Re-point the codec at a new snapshot with identical domains.

        This is the *re-encode* path for data change without domain growth:
        predicate translation only depends on the sorted distinct values, so
        after the compatibility check the swap is free (the walk's literal
        cache stays valid for the same reason).  Grown domains raise
        :class:`~repro.data.DomainGrowthError` instead.
        """
        self.ensure_compatible(table)
        self.table = table
        self._walk.table = table

    # ------------------------------------------------------------------
    def canonicalize(self, predicate: Predicate) -> CanonicalPredicate | None:
        """Map one raw-value predicate to code space.

        Returns ``None`` when the predicate does not constrain the column at
        all (its code interval covers the whole domain).  Empty predicates
        are kept (the zero-out mask then produces a zero factor).
        """
        column = self.table.column(predicate.column)
        low, high = predicate.code_interval(column)
        canonical = _canonical(low, high, column.num_distinct - 1)
        return None if canonical is None else CanonicalPredicate(*canonical)

    def canonical_predicates(self, query: Query) -> dict[int, list[CanonicalPredicate]]:
        """Canonical predicates of a query, grouped by column index."""
        grouped: dict[int, list[CanonicalPredicate]] = {}
        for predicate in query.predicates:
            column_index = self.table.column_index(predicate.column)
            canonical = self.canonicalize(predicate)
            if canonical is None:
                continue
            grouped.setdefault(column_index, []).append(canonical)
        for column_index, predicates in grouped.items():
            if len(predicates) > self.max_predicates:
                raise ValueError(
                    f"query has {len(predicates)} predicates on column "
                    f"{self.table.column(column_index).name!r} but the model was "
                    f"configured for at most {self.max_predicates}; "
                    f"enable multi_predicate / raise max_predicates_per_column")
        return grouped

    # ------------------------------------------------------------------
    def translate_batch(self, queries: list[Query], enforce_slots: bool = True
                        ) -> tuple[np.ndarray, np.ndarray, CodeIntervals]:
        """Batched translation: ``(values, ops, intervals)``.

        The serving miss path's one translation per pass.  Each query's
        predicates come from the codec's cached :class:`IntervalWalk` (one
        dict hit per repeated literal), and each bounding predicate fills
        both its canonical ``(op, code)`` slot and its (query, column)
        :class:`CodeIntervals` bound, where ANDed predicates intersect.
        Semantics match :meth:`canonicalize` and
        :meth:`Query.code_intervals` element for element, except that an
        empty interval keeps its raw bounds (``low > high``).

        ``enforce_slots=False`` silently drops canonical predicates beyond
        the slot budget instead of raising — the intervals are always
        defined even for queries the code arrays cannot represent.
        """
        num_columns = self.table.num_columns
        budget = self.max_predicates
        batch = len(queries)
        bounds = self._walk.bounds
        # Flat positions into one (ops, values) array and what goes there.
        positions: list[int] = []
        entries: list[int] = []
        values_at = batch * num_columns * budget
        cells: list[tuple[int, int, int, int]] = []  # (query, column, low, high)
        overflow: list[tuple[int, int, int]] = []  # (query, column, count)
        for row, query in enumerate(queries):
            narrowed: dict[int, list[int]] = {}
            for column, low, high, op, code in bounds(query):
                cell = narrowed.get(column)
                if cell is None:
                    narrowed[column] = [low, high, 1]
                    used = 0
                else:
                    used = cell[2]
                    cell[2] = used + 1
                    if low > cell[0]:
                        cell[0] = low
                    if high < cell[1]:
                        cell[1] = high
                    if used >= budget:
                        continue
                slot = (row * num_columns + column) * budget + used
                positions += (slot, values_at + slot)
                entries += (op, code)
            for column, (low, high, count) in narrowed.items():
                cells.append((row, column, low, high))
                if count > budget:
                    overflow.append((row, column, count))
        if overflow and enforce_slots:
            _, column, count = min(overflow, key=lambda at: (-at[2], at[0], at[1]))
            raise ValueError(
                f"query has {count} predicates on column "
                f"{self.table.column(column).name!r} but the "
                f"model was configured for at most {budget}; "
                f"enable multi_predicate / raise max_predicates_per_column")
        ops_values = np.full((2, batch, num_columns, budget), -1, dtype=np.int64)
        np.put(ops_values, positions, entries)
        return ops_values[1], ops_values[0], self._intervals(batch, cells)

    def _intervals(self, batch: int,
                   cells: list[tuple[int, int, int, int]]) -> CodeIntervals:
        """Scatter the ``(query, column, low, high)`` bounds into intervals.

        The columns the cells name are the batch's constrained columns; a
        query leaving one of them free keeps its full domain.
        """
        columns = sorted({cell[1] for cell in cells})
        position = {column: slot for slot, column in enumerate(columns)}
        width = len(columns)
        columns = np.array(columns, dtype=np.int64)
        low_high = np.empty((2, batch, width), dtype=np.int64)
        low_high[0] = 0
        low_high[1] = self._ndv[columns] - 1
        high_at = batch * width
        positions: list[int] = []
        bounds: list[int] = []
        for row, column, low, high in cells:
            flat = row * width + position[column]
            positions += (flat, high_at + flat)
            bounds += (low, high)
        np.put(low_high, positions, bounds)
        return CodeIntervals(columns, low_high[0], low_high[1], self._ndv)

    # ------------------------------------------------------------------
    def queries_to_code_arrays(self, queries: list[Query]
                               ) -> tuple[np.ndarray, np.ndarray]:
        """Batch of queries -> ``(values, ops)`` arrays.

        Both arrays have shape ``(batch, num_columns, max_predicates)`` and
        use ``-1`` for "no predicate in this slot".
        """
        values, ops, _ = self.translate_batch(queries)
        return values, ops

    def zero_out_masks(self, queries: list[Query]) -> list[np.ndarray | None]:
        """Per-column valid-value masks ``Pred_i(R_i, v_i)`` for a query batch.

        ``masks[column]`` is ``None`` when no query in the batch constrains
        the column — the sentinel for "factor is exactly 1", which lets both
        the tape and the compiled selectivity paths skip the column without
        materialising a dense all-ones ``(batch, NDV)`` array or scanning
        one.  For constrained columns, element ``[query, code]`` is 1 when
        the code satisfies every predicate the query places on the column
        (rows of queries that leave the column unconstrained stay all-ones).
        """
        _, _, intervals = self.translate_batch(queries, enforce_slots=False)
        return intervals.dense_masks()
