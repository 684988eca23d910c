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
_KIND_EQ = Operator.EQ.index
_KIND_GT = Operator.GT.index
_KIND_LT = Operator.LT.index
_KIND_GE = Operator.GE.index
_KIND_LE = Operator.LE.index


def _run_starts(sorted_values: np.ndarray) -> np.ndarray:
    """Boolean array marking the first element of each run of equal values."""
    starts = np.empty(sorted_values.size, dtype=bool)
    starts[0] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=starts[1:])
    return starts


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
        #: per-column literal -> (left, right) searchsorted cache; serving
        #: traffic repeats literals heavily, and a dict hit is ~20x cheaper
        #: than even a vectorised searchsorted share
        self._interval_cache: list[dict] = [{} for _ in table.columns]

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
        after the compatibility check the swap is free (the literal interval
        cache stays valid for the same reason).  Grown domains raise
        :class:`~repro.data.DomainGrowthError` instead.
        """
        self.ensure_compatible(table)
        self.table = table

    # ------------------------------------------------------------------
    def canonicalize(self, predicate: Predicate) -> CanonicalPredicate | None:
        """Map one raw-value predicate to code space.

        Returns ``None`` when the predicate does not constrain the column at
        all (its code interval covers the whole domain).  Empty predicates
        are kept (the zero-out mask then produces a zero factor).
        """
        column = self.table.column(predicate.column)
        low, high = predicate.code_interval(column)
        last = column.num_distinct - 1
        if low > high:
            # Unsatisfiable predicate: keep an equality on the nearest code so
            # the model still sees a constraint; the mask makes the factor 0.
            return CanonicalPredicate(_OP_EQ, int(np.clip(low, 0, last)))
        if low == 0 and high == last:
            return None
        if low == high:
            return CanonicalPredicate(_OP_EQ, low)
        if low == 0:
            return CanonicalPredicate(_OP_LE, high)
        if high == last:
            return CanonicalPredicate(_OP_GE, low)
        # Two-sided intervals only arise from multiple predicates per column,
        # each of which is canonicalised separately, so this branch is not
        # reachable from a single predicate; guard anyway.
        return CanonicalPredicate(_OP_GE, low)

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
        """One-pass batched translation: ``(values, ops, intervals)``.

        The serving hot path: every predicate's code interval is computed
        exactly once (per-column *vectorised* ``searchsorted`` over all
        literals in the batch instead of two scalar calls per predicate) and
        both the canonical code arrays and the per-(query, column)
        :class:`CodeIntervals` are derived from the same intervals.
        Semantics match :meth:`canonicalize` / :meth:`zero_out_masks`
        element for element.

        ``enforce_slots=False`` silently drops canonical predicates beyond
        the slot budget instead of raising — the intervals are always
        defined even for queries the code arrays cannot represent.
        """
        batch = len(queries)
        num_columns = self.table.num_columns
        shape = (batch, num_columns, self.max_predicates)
        values = np.full(shape, -1, dtype=np.int64)
        ops = np.full(shape, -1, dtype=np.int64)

        # Flatten every predicate of the batch into parallel lists (queries
        # outer, predicates inner — the order slot assignment relies on).
        query_rows: list[int] = []
        column_rows: list[int] = []
        kinds: list[int] = []
        literals: list = []
        column_index_of = self.table.column_index
        for query_index, query in enumerate(queries):
            for predicate in query.predicates:
                query_rows.append(query_index)
                column_rows.append(column_index_of(predicate.column))
                kinds.append(_OP_INDEX[predicate.operator])
                literals.append(predicate.value)
        if not query_rows:
            none = np.zeros(0, dtype=np.int64)
            return values, ops, self._intervals(batch, none, none, none, none)
        qi = np.asarray(query_rows, dtype=np.int64)
        ci = np.asarray(column_rows, dtype=np.int64)
        kind = np.asarray(kinds, dtype=np.int64)
        count = kind.size

        # Literal -> [left, right) code positions, one vectorised
        # searchsorted per constrained column (stable sort keeps each
        # column's predicates in query order, qi ascending inside a group).
        left = np.empty(count, dtype=np.int64)
        right = np.empty(count, dtype=np.int64)
        by_column = np.argsort(ci, kind="stable")
        ci_sorted = ci[by_column]
        group_starts = np.flatnonzero(_run_starts(ci_sorted))
        group_ends = np.append(group_starts[1:], count)
        for start, end in zip(group_starts, group_ends):
            column_index = int(ci_sorted[start])
            cache = self._interval_cache[column_index]
            missing = []
            for i in by_column[start:end]:
                cached = cache.get(literals[i])
                if cached is None:
                    missing.append(i)
                else:
                    left[i], right[i] = cached
            if not missing:
                continue
            column = self.table.column(column_index)
            try:
                chunk = np.asarray([literals[i] for i in missing])
                left[missing] = np.searchsorted(column.distinct_values, chunk,
                                                side="left")
                right[missing] = np.searchsorted(column.distinct_values, chunk,
                                                 side="right")
            except (TypeError, ValueError):  # ragged / incomparable literals
                for i in missing:
                    left[i] = column.searchsorted(literals[i], side="left")
                    right[i] = column.searchsorted(literals[i], side="right")
            if len(cache) > 262144:  # bound a long-lived service's footprint
                cache.clear()
            for i in missing:
                cache[literals[i]] = (left[i], right[i])

        # Inclusive code intervals — vectorised Predicate.code_interval over
        # the whole batch at once.
        last = self._ndv[ci] - 1
        is_eq = kind == _KIND_EQ
        low = np.zeros(count, dtype=np.int64)
        high = last.copy()
        np.copyto(low, left, where=is_eq | (kind == _KIND_GE))
        np.copyto(low, right, where=kind == _KIND_GT)
        np.copyto(high, right - 1, where=is_eq | (kind == _KIND_LE))
        np.copyto(high, left - 1, where=kind == _KIND_LT)
        eq_missing = is_eq & (left == right)  # equality on an absent value
        low[eq_missing] = 1
        high[eq_missing] = 0
        #: predicates whose interval covers the whole domain constrain nothing
        whole_domain = (low == 0) & (high == last)

        # Whole-domain predicates bound nothing: a column whose predicates
        # all cover its domain stays unconstrained (exact factor 1).
        bounding = ~whole_domain
        intervals = self._intervals(batch, qi[bounding], ci[bounding],
                                    low[bounding], high[bounding])

        # Canonical (operator, code) pairs — vectorised `canonicalize`.
        # Later assignments override earlier ones, so the priority order is
        # the reverse of the scalar if-chain: GE default, then low == 0,
        # low == high, whole-domain (dropped), unsatisfiable.
        canonical_op = np.full(count, _OP_GE, dtype=np.int64)
        canonical_code = low.copy()
        is_low_zero = low == 0
        np.copyto(canonical_op, _OP_LE, where=is_low_zero)
        np.copyto(canonical_code, high, where=is_low_zero)
        is_point = low == high
        np.copyto(canonical_op, _OP_EQ, where=is_point)
        np.copyto(canonical_code, low, where=is_point)
        np.copyto(canonical_op, -1, where=whole_domain)
        unsat = low > high
        np.copyto(canonical_op, _OP_EQ, where=unsat)
        np.copyto(canonical_code, np.clip(low, 0, last), where=unsat)

        # Slot assignment: occurrence index within each (query, column) pair
        # among kept predicates, in predicate order (stable sort preserves it).
        kept = np.flatnonzero(canonical_op >= 0)
        if not kept.size:
            return values, ops, intervals
        order = kept[np.argsort(qi[kept] * num_columns + ci[kept], kind="stable")]
        rows, cols = qi[order], ci[order]
        same = ~_run_starts(rows * num_columns + cols)
        positions = np.arange(order.size)
        group_first = positions[~same]
        group_sizes = np.diff(np.append(group_first, order.size))
        slots = positions - np.repeat(group_first, group_sizes)
        if slots.max(initial=0) >= self.max_predicates:
            if enforce_slots:
                overflow = int(np.argmax(slots))
                raise ValueError(
                    f"query has {int(group_sizes.max())} predicates on column "
                    f"{self.table.column(int(cols[overflow])).name!r} but the "
                    f"model was configured for at most {self.max_predicates}; "
                    f"enable multi_predicate / raise max_predicates_per_column")
            within = slots < self.max_predicates
            order, rows, cols, slots = (order[within], rows[within],
                                        cols[within], slots[within])
        values[rows, cols, slots] = canonical_code[order]
        ops[rows, cols, slots] = canonical_op[order]
        return values, ops, intervals

    def _intervals(self, batch: int, qi: np.ndarray, ci: np.ndarray,
                   low: np.ndarray, high: np.ndarray) -> CodeIntervals:
        """Intersect the bounding predicates' intervals per (query, column).

        Every predicate must bound its column (no whole-domain ones): the
        columns it names are the batch's constrained columns.  Each starts
        at the full domain; ANDed predicates narrow it with
        ``np.maximum.at`` / ``np.minimum.at``.
        """
        constrained = np.zeros(self._ndv.size, dtype=bool)
        constrained[ci] = True
        columns = np.flatnonzero(constrained)
        bounds_low = np.zeros((batch, columns.size), dtype=np.int64)
        bounds_high = np.empty((batch, columns.size), dtype=np.int64)
        bounds_high[:] = self._ndv[columns] - 1
        if ci.size:
            at = (qi, (np.cumsum(constrained) - 1)[ci])
            np.maximum.at(bounds_low, at, low)
            np.minimum.at(bounds_high, at, high)
        return CodeIntervals(columns, bounds_low, bounds_high, self._ndv)

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
