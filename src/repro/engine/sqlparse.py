"""A restricted SQL front end for multi-Group-By queries.

Accepts the statement shapes the paper works with and compiles them to
the executable algebra of :mod:`repro.core.rewrites`::

    SELECT <list> FROM <table>
    [WHERE <col> <op> <literal> [AND ...]]
    GROUP BY GROUPING SETS ((a, b), (c), ...)
           | CUBE (a, b, c)
           | ROLLUP (a, b, c)
           | a, b, c
    [HAVING <agg-alias> <op> <literal> [AND ...]]

The select list is validated against the grouping (every non-aggregate
item must be a grouped column) and may contain COUNT(*), COUNT(col),
SUM/MIN/MAX/AVG(col).  CUBE and ROLLUP are desugared to the equivalent
explicit GROUPING SETS, so the planner sees one shape.  HAVING filters
the grouped result on aggregate output columns (``cnt`` for the default
COUNT(*)) — e.g. ``HAVING cnt > 1`` is the duplicate-detection idiom of
the data-quality scenario.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import combinations

from repro.core.rewrites import GroupingSetsExpr, RelationExpr, SelectExpr
from repro.engine.aggregation import FUNCTIONS, AggregateSpec
from repro.engine.expressions import Predicate


class SqlParseError(Exception):
    """The statement does not fit the supported grammar."""


_TOKEN = re.compile(
    r"""
    \s*(
        (?P<string>'(?:[^']|'')*')
      | (?P<number>-?\d+(?:\.\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op><=|>=|<>|!=|=|<|>)
      | (?P<punct>[(),*])
    )
    """,
    re.VERBOSE,
)

#: Aggregate keywords, as the engine's aggregate functions name them.
_AGGREGATES = {function.sql.lower() for function in FUNCTIONS.values()}

_KEYWORDS = {
    "select", "from", "where", "and", "group", "by",
    "grouping", "sets", "cube", "rollup", "as", "having",
} | _AGGREGATES


@dataclass
class _Token:
    kind: str
    value: str


def _tokenize(sql: str) -> list[_Token]:
    tokens = []
    position = 0
    text = sql.strip().rstrip(";")
    while position < len(text):
        match = _TOKEN.match(text, position)
        if match is None:
            raise SqlParseError(
                f"unexpected character at {position}: {text[position:position + 10]!r}"
            )
        position = match.end()
        for kind in ("string", "number", "ident", "op", "punct"):
            value = match.group(kind)
            if value is not None:
                if kind == "ident" and value.lower() in _KEYWORDS:
                    tokens.append(_Token("keyword", value.lower()))
                else:
                    tokens.append(_Token(kind, value))
                break
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self._tokens = tokens
        self._index = 0

    def peek(self) -> _Token | None:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def next(self) -> _Token:
        token = self.peek()
        if token is None:
            raise SqlParseError("unexpected end of statement")
        self._index += 1
        return token

    def expect(self, kind: str, value: str | None = None) -> _Token:
        token = self.next()
        if token.kind != kind or (value is not None and token.value != value):
            expected = value or kind
            raise SqlParseError(
                f"expected {expected!r}, found {token.value!r}"
            )
        return token

    def accept(self, kind: str, value: str | None = None) -> bool:
        token = self.peek()
        if (
            token is not None
            and token.kind == kind
            and (value is None or token.value == value)
        ):
            self._index += 1
            return True
        return False

    def done(self) -> bool:
        return self._index >= len(self._tokens)


@dataclass
class ParsedQuery:
    """A parsed multi-Group-By statement."""

    table: str
    grouping_sets: tuple[tuple[str, ...], ...]
    aggregates: tuple[AggregateSpec, ...]
    predicates: tuple[Predicate, ...] = ()
    select_columns: tuple[str, ...] = ()
    grouping_style: str = "grouping sets"  # or 'cube' / 'rollup' / 'plain'
    having: tuple[Predicate, ...] = ()

    def queries(self) -> list[frozenset[str]]:
        """The input set S for the optimizer."""
        return [frozenset(s) for s in self.grouping_sets]

    def to_expression(self) -> GroupingSetsExpr:
        """Compile to the executable rewrites algebra (HAVING excluded —
        apply it to the result with :meth:`apply_having`)."""
        child = RelationExpr(self.table)
        if self.predicates:
            child = SelectExpr(child, self.predicates)
        return GroupingSetsExpr(
            child, self.grouping_sets, aggregates=self.aggregates
        )

    def apply_having(self, result):
        """Filter a grouped result table by the HAVING predicates."""
        from repro.engine.expressions import apply_filter

        return apply_filter(result, list(self.having))


def _parse_aggregate(parser: _Parser, keyword: str) -> AggregateSpec:
    parser.expect("punct", "(")
    column = None if parser.accept("punct", "*") else parser.expect("ident").value
    parser.expect("punct", ")")
    funcs = [
        func
        for func, function in FUNCTIONS.items()
        if function.sql.lower() == keyword
        and function.reads_column == (column is not None)
    ]
    if not funcs:
        raise SqlParseError(f"{keyword.upper()}(*) is not an aggregate")
    alias = "cnt" if column is None else f"{keyword}_{column}"
    if parser.accept("keyword", "as"):
        alias = parser.expect("ident").value
    elif parser.peek() is not None and parser.peek().kind == "ident":
        alias = parser.next().value
    return AggregateSpec(funcs[0], column, alias)


def _parse_select_list(parser: _Parser):
    columns: list[str] = []
    aggregates: list[AggregateSpec] = []
    while True:
        token = parser.next()
        if token.kind == "keyword" and token.value in _AGGREGATES:
            aggregates.append(_parse_aggregate(parser, token.value))
        elif token.kind == "punct" and token.value == "*":
            pass  # SELECT *: grouped columns, filled in later
        elif token.kind == "ident":
            columns.append(token.value)
        else:
            raise SqlParseError(
                f"unexpected token {token.value!r} in select list"
            )
        if not parser.accept("punct", ","):
            break
    return tuple(columns), tuple(aggregates)


def _parse_column_list(parser: _Parser) -> tuple[str, ...]:
    parser.expect("punct", "(")
    columns = []
    if not parser.accept("punct", ")"):
        while True:
            columns.append(parser.expect("ident").value)
            if parser.accept("punct", ")"):
                break
            parser.expect("punct", ",")
    return tuple(columns)


def _parse_where(parser: _Parser) -> tuple[Predicate, ...]:
    predicates = []
    while True:
        column = parser.expect("ident").value
        operator = parser.expect("op").value
        token = parser.next()
        if token.kind == "number":
            value = float(token.value) if "." in token.value else int(token.value)
        elif token.kind == "string":
            value = token.value[1:-1].replace("''", "'")
        else:
            raise SqlParseError(f"expected a literal, found {token.value!r}")
        mapped = {"=": "==", "<>": "!=", "!=": "!="}.get(operator, operator)
        predicates.append(Predicate(column, mapped, value))
        if not parser.accept("keyword", "and"):
            break
    return tuple(predicates)


def parse_sql(sql: str) -> ParsedQuery:
    """Parse a supported statement.

    Raises:
        SqlParseError: for anything outside the grammar.
    """
    parser = _Parser(_tokenize(sql))
    parser.expect("keyword", "select")
    select_columns, aggregates = _parse_select_list(parser)
    parser.expect("keyword", "from")
    table = parser.expect("ident").value
    predicates: tuple[Predicate, ...] = ()
    if parser.accept("keyword", "where"):
        predicates = _parse_where(parser)
    parser.expect("keyword", "group")
    parser.expect("keyword", "by")

    if parser.accept("keyword", "grouping"):
        parser.expect("keyword", "sets")
        parser.expect("punct", "(")
        sets = []
        while True:
            sets.append(_parse_column_list(parser))
            if parser.accept("punct", ")"):
                break
            parser.expect("punct", ",")
        style = "grouping sets"
        grouping_sets = tuple(sets)
    elif parser.accept("keyword", "cube"):
        columns = _parse_column_list(parser)
        grouping_sets = tuple(
            combo
            for size in range(len(columns), 0, -1)
            for combo in combinations(columns, size)
        )
        style = "cube"
    elif parser.accept("keyword", "rollup"):
        columns = _parse_column_list(parser)
        grouping_sets = tuple(
            columns[:size] for size in range(len(columns), 0, -1)
        )
        style = "rollup"
    else:
        columns = []
        while True:
            columns.append(parser.expect("ident").value)
            if not parser.accept("punct", ","):
                break
        grouping_sets = (tuple(columns),)
        style = "plain"

    having: tuple[Predicate, ...] = ()
    if parser.accept("keyword", "having"):
        having = _parse_where(parser)

    if not parser.done():
        raise SqlParseError(
            f"trailing input from {parser.peek().value!r}"
        )
    if not grouping_sets or any(not s for s in grouping_sets):
        raise SqlParseError("every grouping set must name a column")

    grouped = {c for s in grouping_sets for c in s}
    for column in select_columns:
        if column not in grouped:
            raise SqlParseError(
                f"select column {column!r} is not grouped"
            )
    if not aggregates:
        aggregates = (AggregateSpec.count_star(),)
    aggregate_aliases = {spec.alias for spec in aggregates}
    for predicate in having:
        if predicate.column not in aggregate_aliases:
            raise SqlParseError(
                f"HAVING column {predicate.column!r} is not an "
                f"aggregate output (have: {sorted(aggregate_aliases)})"
            )
    return ParsedQuery(
        table=table,
        grouping_sets=grouping_sets,
        aggregates=aggregates,
        predicates=predicates,
        select_columns=select_columns or tuple(sorted(grouped)),
        grouping_style=style,
        having=having,
    )
