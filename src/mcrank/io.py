"""File formats: rating CSVs, predicted-vector CSVs, config and report files.

Dataset files are UTF-8 CSV with header ``user_id,item_id,overall,<c1>,...``;
criterion names come from the header. Reports are JSON with a sibling
plot-ready CSV holding the same cells flattened. All numeric output uses
shortest round-trip formatting, so emitted files reload to exactly the
in-memory values.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import fields
from pathlib import Path

from .core import CandidateSet, Dataset, MethodSpec, RatingRecord, validate_dataset
from .errors import DatasetValidationError, DomainError, ParseError
from .pipeline import ExperimentConfig, MetricsReport, Protocol, ReportCell
from .predictor import TrainConfig

_FIXED_COLUMNS = ("user_id", "item_id", "overall")


def format_rating(value: float) -> str:
    """Integral ratings print bare, predicted values keep full precision."""
    f = float(value)
    return str(int(f)) if f.is_integer() else repr(f)


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8-sig")  # a leading BOM is dropped
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc


def _parse_float(path: Path, line: int, column: str, text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ParseError(
            f"{path}: line {line}: {column} value {text!r} is not a number"
        ) from exc


def _read_csv(path: str | Path, *, vectors: bool):
    """(path, criterion names, rows) of a header-checked rating CSV, or with
    ``vectors`` a predicted-vector CSV. ``rows`` lazily yields (line, user,
    item, cells, values) per non-blank row, ``values`` being the floats of
    ``cells``: the overall and criteria cells, or with ``vectors`` the
    criteria cells alone. A ParseError names the line and the column."""
    path = Path(path)
    lines = enumerate(csv.reader(_read_text(path).splitlines()), 1)
    rows = ((line, list(map(str.strip, row))) for line, row in lines if row)
    _, header = next(rows, (0, None))
    if header is None:
        raise ParseError(f"{path}: no header (file is empty)")
    if len(header) >= 4 and tuple(header[:3]) == _FIXED_COLUMNS:
        first = 3
    elif vectors and len(header) >= 3 and tuple(header[:2]) == _FIXED_COLUMNS[:2]:
        first = 2
    else:
        raise ParseError(
            f"{path}: line 1: header must be user_id,item_id"
            f"{'[,overall]' if vectors else ',overall'},<criterion,...>, "
            f"got {','.join(header)}")
    names = header[first:]
    if len(set(names)) != len(names) or not all(names):
        raise ParseError(f"{path}: line 1: criterion names must be distinct and non-empty")
    start = first if vectors else 2
    columns = header[start:]

    def parsed():
        for line, row in rows:
            if len(row) != len(header):
                raise ParseError(
                    f"{path}: line {line}: expected {len(header)} columns, got {len(row)}")
            if not (row[0] and row[1]):
                raise ParseError(f"{path}: line {line}: user_id and item_id must be non-empty")
            cells = row[start:]
            try:
                values = list(map(float, cells))
            except ValueError:  # locate the bad cell
                values = [_parse_float(path, line, columns[i], cell)
                          for i, cell in enumerate(cells)]
            yield line, row[0], row[1], cells, values
    return path, names, parsed()


def load_dataset(path: str | Path) -> Dataset:
    """Read and validate a rating CSV on the fixed 1-5 scale.

    Raises ParseError with a line number on malformed rows, and
    DatasetValidationError listing every invariant violation at once.
    """
    _, names, rows = _read_csv(path, vectors=False)
    records = tuple(RatingRecord(user_id=user, item_id=item, overall=values[0],
                                 criteria=values[1:])
                    for _, user, item, _, values in rows)
    dataset = Dataset(criteria_names=names, records=records)
    violations = validate_dataset(dataset)
    if violations:
        raise DatasetValidationError(violations)
    return dataset


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(_FIXED_COLUMNS) + list(dataset.criteria_names))
        for r in dataset.records:
            writer.writerow([r.user_id, r.item_id, format_rating(r.overall)]
                            + [format_rating(v) for v in r.criteria])


def load_candidate_sets(path: str | Path) -> dict[str, CandidateSet]:
    """Read a predicted-vectors CSV into per-user candidate sets.

    Header is ``user_id,item_id,<criterion,...>``; a full dataset file
    (with an ``overall`` column) is also accepted, the overall being
    ignored since ranking uses criteria values only. Values may be
    continuous and are not checked against a rating scale.
    """
    path, names, rows = _read_csv(path, vectors=True)
    per_user: dict[str, dict[str, list[float]]] = {}
    for line, user, item, cells, vector in rows:
        # one test per row; finite cells whose sum overflows pass the loop
        if not math.isfinite(sum(vector)):
            for name, cell, value in zip(names, cells, vector):
                if not math.isfinite(value):
                    raise ParseError(
                        f"{path}: line {line}: {name} value {cell!r} is not finite")
        vectors = per_user.setdefault(user, {})
        if item in vectors:
            raise ParseError(
                f"{path}: line {line}: duplicate item {item!r} for user {user!r}")
        vectors[item] = vector
    return {user: CandidateSet.from_pairs(user, vectors.items())
            for user, vectors in per_user.items()}


def save_predictions(path: str | Path, criteria_names, rows) -> None:
    """Write predicted vectors as ``user_id,item_id,<criterion,...>`` CSV.

    ``rows`` yields (user_id, item_id, vector) triples.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["user_id", "item_id"] + list(criteria_names))
        for user, item, vector in rows:
            writer.writerow([user, item] + [repr(float(v)) for v in vector])


_CONFIG_KEYS = {f.name for f in fields(ExperimentConfig)} - {"dataset_path"}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _is_list_of(check):
    return lambda value: isinstance(value, list) and all(check(v) for v in value)


# an int default takes a JSON integer, a float default any JSON number
_TRAIN_TYPES = {f.name: (_is_int, "an integer") if isinstance(f.default, int)
                else (_is_number, "a number") for f in fields(TrainConfig)}


def _config_value(doc: dict, key: str, default, check, expected: str,
                  prefix: str = ""):
    value = doc.get(key, default)
    if not check(value):
        raise ParseError(
            f"config key {prefix + key!r} must be {expected}, got {value!r}")
    return value


def experiment_config_from_dict(doc: dict, *,
                                dataset_path: str | None = None) -> ExperimentConfig:
    """Build an ExperimentConfig, rejecting unknown keys and mistyped values.

    Every ParseError names the offending key. Integers must be JSON
    integers (no truncation of 2.7 to 2), and list-valued keys must be
    JSON lists.
    """
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise ParseError(f"unknown experiment config keys: {sorted(unknown)}")
    train_doc = _config_value(doc, "train", {}, lambda v: isinstance(v, dict),
                              "an object")
    unknown = set(train_doc) - set(_TRAIN_TYPES)
    if unknown:
        raise ParseError(f"unknown train config keys: {sorted(unknown)}")
    defaults = ExperimentConfig(methods=(MethodSpec.pr(),))
    train = {key: _config_value(train_doc, key, getattr(defaults.train, key),
                                check, expected, "train.")
             for key, (check, expected) in _TRAIN_TYPES.items()}
    labels = _config_value(doc, "methods", ["pr"],
                           _is_list_of(lambda v: isinstance(v, str)),
                           "a list of method labels")
    return ExperimentConfig(
        methods=tuple(MethodSpec.parse(s) for s in labels),
        folds=_config_value(doc, "folds", defaults.folds, _is_int, "an integer"),
        seed=_config_value(doc, "seed", defaults.seed, _is_int, "an integer"),
        n_values=tuple(_config_value(doc, "n_values", list(defaults.n_values),
                                     _is_list_of(_is_int), "a list of integers")),
        relevance_threshold=float(_config_value(
            doc, "relevance_threshold", defaults.relevance_threshold,
            _is_number, "a number")),
        protocol=Protocol.parse(_config_value(
            doc, "protocol", defaults.protocol.value,
            lambda v: isinstance(v, str), "a string")),
        train=TrainConfig(**train),
        dataset_path=dataset_path,
    )


def load_experiment_config(path: str | Path, *,
                           dataset_path: str | None = None) -> ExperimentConfig:
    path = Path(path)
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: config must be a JSON object")
    try:
        return experiment_config_from_dict(doc, dataset_path=dataset_path)
    except (ParseError, DomainError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


_CELL_FIELDS = ("method", "k", "sub", "n", "fold", "f1", "ndcg",
                "improvement_f1", "improvement_ndcg")


def emit_report(report: MetricsReport, path: str | Path) -> None:
    """Write the report JSON plus a sibling flat CSV next to it.

    Output is deterministic for a deterministic report: cell order is
    fixed and floats use shortest round-trip formatting, so reloading
    reproduces the in-memory report exactly.
    """
    path = Path(path)
    doc = {
        "metadata": report.metadata,
        "cells": [{f: getattr(c, f) for f in _CELL_FIELDS} for c in report.cells],
    }
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    csv_path = path.with_suffix(".csv")
    with csv_path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_CELL_FIELDS)
        for c in report.cells:
            writer.writerow(["" if (v := getattr(c, f)) is None else v
                             for f in _CELL_FIELDS])


def load_report(path: str | Path) -> MetricsReport:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    try:
        cells = tuple(ReportCell(**cell) for cell in doc["cells"])
        return MetricsReport(metadata=doc["metadata"], cells=cells)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"{path}: not a report file: {exc}") from exc
