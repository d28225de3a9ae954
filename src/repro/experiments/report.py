"""Structured experiment results: typed blocks, exact serialization, renderers.

Every experiment entry point returns an :class:`ExperimentReport` -- an ordered
collection of typed blocks instead of an ad-hoc dict:

* :class:`Metric` -- one labelled scalar (with an optional unit);
* :class:`Table` -- labelled columns x rows of scalar cells (per-column units);
* :class:`Series` -- one (x, y) sequence, e.g. a bandwidth timeline.

A block's ``key`` may contain ``/`` separators (``"average/sysscale"``).
Callers read results by key: ``report.block("average/sysscale").value`` for a
metric, ``Table.records()`` for a table's rows and ``Series.points()`` for a
series.

Serialization is exact: ``ExperimentReport.from_dict(report.to_dict())``
reconstructs an equal report, including after a JSON round trip (all values are
canonicalized to plain JSON scalars at construction).  ``to_dict`` carries the
run metadata (parameters, spec hash, and the runtime's submitted / executed /
cache-hit accounting); :meth:`ExperimentReport.results_dict` is the same
document *without* the volatile accounting, so cold- and warm-cache runs of one
experiment export bit-identical numbers.

Three renderers cover every export surface (the CLI, examples, and files):
:func:`render_text` (the ASCII tables), :func:`render_json`, and
:func:`render_csv`.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.hashing import canonical_json, content_hash

#: Bump when the report schema changes incompatibly.
REPORT_SCHEMA_VERSION = 1

Scalar = Union[str, int, float, bool, None]
#: A table cell: a scalar, or a sequence of scalars (e.g. a distribution).
CellValue = Union[Scalar, Tuple[Scalar, ...]]


def _canonical_scalar(value: Any) -> Scalar:
    """Coerce ``value`` to a plain JSON scalar (numpy scalars included)."""
    if value is None or isinstance(value, (str, bool, int, float)):
        return value
    item = getattr(value, "item", None)
    if callable(item):  # numpy scalar
        return _canonical_scalar(item())
    raise TypeError(f"value {value!r} is not a JSON scalar")


def _canonical_cell(value: Any) -> CellValue:
    if isinstance(value, (list, tuple)):
        return tuple(_canonical_scalar(item) for item in value)
    return _canonical_scalar(value)


def _cell_to_jsonable(value: CellValue) -> Any:
    return list(value) if isinstance(value, tuple) else value


# ---------------------------------------------------------------------------
# Blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Metric:
    """One labelled scalar result (``key`` may nest with ``/``)."""

    key: str
    value: Scalar
    unit: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", _canonical_scalar(self.value))

    @staticmethod
    def group(
        prefix: str,
        values: Mapping[str, Scalar],
        unit: str = "",
    ) -> Tuple["Metric", ...]:
        """One metric per mapping entry, keyed ``prefix/<name>``."""
        return tuple(
            Metric(key=f"{prefix}/{name}", value=value, unit=unit)
            for name, value in values.items()
        )

    def to_dict(self) -> Dict[str, Any]:
        return {"type": "metric", "key": self.key, "value": self.value, "unit": self.unit}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Metric":
        return cls(key=data["key"], value=data["value"], unit=data.get("unit", ""))


@dataclass(frozen=True)
class Table:
    """Labelled columns x rows of scalar cells, with optional per-column units."""

    key: str
    columns: Tuple[str, ...]
    rows: Tuple[Tuple[CellValue, ...], ...]
    units: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(str(c) for c in self.columns))
        object.__setattr__(
            self,
            "rows",
            tuple(tuple(_canonical_cell(cell) for cell in row) for row in self.rows),
        )
        object.__setattr__(
            self, "units", tuple(sorted((str(c), str(u)) for c, u in self.units))
        )
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"table {self.key!r}: row width {len(row)} != "
                    f"{len(self.columns)} columns"
                )

    @classmethod
    def from_records(
        cls,
        key: str,
        records: Sequence[Mapping[str, Any]],
        columns: Optional[Sequence[str]] = None,
        units: Optional[Mapping[str, str]] = None,
    ) -> "Table":
        """Build from row dictionaries; columns default to first-seen key order."""
        if columns is None:
            seen: List[str] = []
            for record in records:
                for name in record:
                    if name not in seen:
                        seen.append(name)
            columns = seen
        rows = tuple(
            tuple(record.get(column) for column in columns) for record in records
        )
        unit_items = tuple(sorted((units or {}).items()))
        return cls(key=key, columns=tuple(columns), rows=rows, units=unit_items)

    def records(self) -> List[Dict[str, Any]]:
        """Row-dictionary view (tuple cells become lists)."""
        return [
            {
                column: _cell_to_jsonable(cell)
                for column, cell in zip(self.columns, row)
            }
            for row in self.rows
        ]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "table",
            "key": self.key,
            "columns": list(self.columns),
            "rows": [[_cell_to_jsonable(cell) for cell in row] for row in self.rows],
            "units": {column: unit for column, unit in self.units},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Table":
        return cls(
            key=data["key"],
            columns=tuple(data["columns"]),
            rows=tuple(tuple(row) for row in data["rows"]),
            units=tuple(sorted(data.get("units", {}).items())),
        )


@dataclass(frozen=True)
class Series:
    """One labelled (x, y) sequence, e.g. a bandwidth-over-time timeline."""

    key: str
    x: Tuple[float, ...]
    y: Tuple[float, ...]
    x_label: str = "x"
    y_label: str = "y"
    unit: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", tuple(_canonical_scalar(v) for v in self.x))
        object.__setattr__(self, "y", tuple(_canonical_scalar(v) for v in self.y))
        if len(self.x) != len(self.y):
            raise ValueError(
                f"series {self.key!r}: {len(self.x)} x values vs {len(self.y)} y values"
            )

    @classmethod
    def from_points(
        cls,
        key: str,
        points: Iterable[Tuple[float, float]],
        x_label: str = "x",
        y_label: str = "y",
        unit: str = "",
    ) -> "Series":
        xs, ys = [], []
        for x, y in points:
            xs.append(x)
            ys.append(y)
        return cls(key=key, x=tuple(xs), y=tuple(ys), x_label=x_label, y_label=y_label, unit=unit)

    def points(self) -> List[Dict[str, float]]:
        """Point-dictionary view: ``[{x_label: x, y_label: y}, ...]``."""
        return [
            {self.x_label: x, self.y_label: y} for x, y in zip(self.x, self.y)
        ]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "series",
            "key": self.key,
            "x": list(self.x),
            "y": list(self.y),
            "x_label": self.x_label,
            "y_label": self.y_label,
            "unit": self.unit,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Series":
        return cls(
            key=data["key"],
            x=tuple(data["x"]),
            y=tuple(data["y"]),
            x_label=data.get("x_label", "x"),
            y_label=data.get("y_label", "y"),
            unit=data.get("unit", ""),
        )


Block = Union[Metric, Table, Series]

_BLOCK_TYPES: Dict[str, type] = {
    "metric": Metric,
    "table": Table,
    "series": Series,
}


def block_from_dict(data: Dict[str, Any]) -> Block:
    """Rebuild a block serialized with ``to_dict`` (dispatches on ``type``)."""
    block_type = _BLOCK_TYPES.get(data.get("type"))
    if block_type is None:
        raise KeyError(
            f"unknown block type {data.get('type')!r}; known: {sorted(_BLOCK_TYPES)}"
        )
    return block_type.from_dict(data)


# ---------------------------------------------------------------------------
# Run accounting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunInfo:
    """Runtime accounting attributed to one report (deltas, not totals)."""

    submitted: int = 0
    unique: int = 0
    executed: int = 0
    cache_hits: int = 0

    def since(self, before: "RunInfo") -> "RunInfo":
        """The accounting delta between two snapshots of one runtime."""
        return RunInfo(
            submitted=self.submitted - before.submitted,
            unique=self.unique - before.unique,
            executed=self.executed - before.executed,
            cache_hits=self.cache_hits - before.cache_hits,
        )

    def to_dict(self) -> Dict[str, int]:
        return {
            "submitted": self.submitted,
            "unique": self.unique,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunInfo":
        return cls(**data)


# ---------------------------------------------------------------------------
# The report
# ---------------------------------------------------------------------------


def _canonical_params(value: Any) -> Any:
    """Canonicalize parameter values to plain JSON types (tuples -> lists)."""
    if isinstance(value, dict):
        return {str(key): _canonical_params(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical_params(item) for item in value]
    return _canonical_scalar(value)


@dataclass(frozen=True)
class ExperimentReport:
    """A typed experiment result: labelled blocks plus run metadata."""

    experiment: str
    title: str = ""
    params: Dict[str, Any] = field(default_factory=dict)
    blocks: Tuple[Block, ...] = ()
    run: RunInfo = field(default_factory=RunInfo)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _canonical_params(self.params))
        object.__setattr__(self, "blocks", tuple(self.blocks))
        keys = [block.key for block in self.blocks]
        if len(set(keys)) != len(keys):
            raise ValueError(f"report {self.experiment!r} has duplicate block keys")

    # -- block access -------------------------------------------------------
    def block(self, key: str) -> Block:
        for candidate in self.blocks:
            if candidate.key == key:
                return candidate
        raise KeyError(f"report {self.experiment!r} has no block {key!r}")

    @property
    def tables(self) -> Tuple[Table, ...]:
        return tuple(b for b in self.blocks if isinstance(b, Table))

    @property
    def metrics(self) -> Tuple[Metric, ...]:
        return tuple(b for b in self.blocks if isinstance(b, Metric))

    @property
    def series(self) -> Tuple[Series, ...]:
        return tuple(b for b in self.blocks if isinstance(b, Series))

    @property
    def spec_hash(self) -> str:
        """Content hash of what was asked for (experiment + parameters)."""
        return content_hash(
            {
                "schema": REPORT_SCHEMA_VERSION,
                "experiment": self.experiment,
                "params": self.params,
            }
        )

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": REPORT_SCHEMA_VERSION,
            "experiment": self.experiment,
            "title": self.title,
            "params": self.params,
            "spec_hash": self.spec_hash,
            "run": self.run.to_dict(),
            "blocks": [block.to_dict() for block in self.blocks],
        }

    def results_dict(self) -> Dict[str, Any]:
        """``to_dict`` without the volatile run accounting: identical for a
        cold-cache and a warm-cache run of the same experiment."""
        data = self.to_dict()
        del data["run"]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentReport":
        schema = data.get("schema")
        if schema != REPORT_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported report schema {schema!r} "
                f"(expected {REPORT_SCHEMA_VERSION})"
            )
        return cls(
            experiment=data["experiment"],
            title=data.get("title", ""),
            params=data.get("params", {}),
            blocks=tuple(block_from_dict(block) for block in data.get("blocks", [])),
            run=RunInfo.from_dict(data.get("run", {})),
        )


# ---------------------------------------------------------------------------
# Renderers (text / JSON / CSV)
# ---------------------------------------------------------------------------


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    float_format: str = "{:.3f}",
) -> str:
    """Render a list of row dictionaries as an aligned text table."""
    rows = list(rows)
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())

    def render(value: object) -> str:
        if value is None:
            return ""
        if isinstance(value, bool):
            return str(value)
        if isinstance(value, float):
            return float_format.format(value)
        if isinstance(value, (list, tuple)):
            return ";".join(render(item) for item in value)
        return str(value)

    rendered = [[render(row.get(column)) for column in columns] for row in rows]
    widths = [
        max(len(str(column)), max(len(line[index]) for line in rendered))
        for index, column in enumerate(columns)
    ]
    header = "  ".join(str(column).ljust(width) for column, width in zip(columns, widths))
    separator = "  ".join("-" * width for width in widths)
    body = [
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths))
        for line in rendered
    ]
    return "\n".join([header, separator, *body])


def _format_metric_value(value: Scalar) -> str:
    if isinstance(value, bool) or not isinstance(value, float):
        return str(value)
    return f"{value:.6g}"


def render_text(report: ExperimentReport, tables: bool = True) -> str:
    """ASCII rendering of a report: title, tables, series summaries, metrics."""
    lines: List[str] = []
    heading = report.experiment
    if report.title:
        heading += f" -- {report.title}"
    lines.append(heading)
    if report.params:
        rendered = ", ".join(
            f"{key}={value}" for key, value in sorted(report.params.items())
        )
        lines.append(f"  params: {rendered}")
    for block in report.blocks:
        if isinstance(block, Table):
            lines.append(f"  {block.key}: {len(block.rows)} row(s)")
            if tables and block.rows:
                for line in format_table(block.records(), block.columns).splitlines():
                    lines.append(f"    {line}")
        elif isinstance(block, Series):
            lines.append(
                f"  {block.key}: {len(block.x)} point(s) "
                f"({block.x_label} -> {block.y_label})"
            )
    metrics = report.metrics
    if metrics:
        lines.append("  metrics:")
        for metric in metrics:
            suffix = f" {metric.unit}" if metric.unit else ""
            lines.append(f"    {metric.key}: {_format_metric_value(metric.value)}{suffix}")
    return "\n".join(lines)


def render_json(report: ExperimentReport, indent: Optional[int] = 2) -> str:
    """The full report document as JSON (exact ``from_dict`` round trip)."""
    return json.dumps(report.to_dict(), indent=indent, sort_keys=False)


def render_csv(report: ExperimentReport) -> str:
    """CSV export: one section per table/series block plus a metrics section.

    Deliberately excludes the run accounting, so a warm-cache rerun exports a
    byte-identical document.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["experiment", report.experiment])
    for key in sorted(report.params):
        writer.writerow(["param", key, canonical_json(report.params[key])])
    for block in report.blocks:
        if isinstance(block, Table):
            writer.writerow([])
            writer.writerow(["table", block.key])
            writer.writerow(block.columns)
            for row in block.rows:
                writer.writerow(
                    [
                        ";".join(str(item) for item in cell)
                        if isinstance(cell, tuple)
                        else cell
                        for cell in row
                    ]
                )
        elif isinstance(block, Series):
            writer.writerow([])
            writer.writerow(["series", block.key])
            writer.writerow([block.x_label, block.y_label])
            for x, y in zip(block.x, block.y):
                writer.writerow([x, y])
    metrics = report.metrics
    if metrics:
        writer.writerow([])
        writer.writerow(["metrics"])
        writer.writerow(["key", "value", "unit"])
        for metric in metrics:
            writer.writerow([metric.key, metric.value, metric.unit])
    return buffer.getvalue()
