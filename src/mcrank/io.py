"""File formats: rating and predicted-vector CSVs; config, report and model JSON.

Dataset files are UTF-8 CSV with header ``user_id,item_id,overall,<c1>,...``;
criterion names come from the header. Reports are JSON with a sibling
plot-ready CSV holding the same cells flattened. All numeric output uses
shortest round-trip formatting, so emitted files reload to exactly the
in-memory values.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np

from .core import SCALE, CandidateSet, Dataset, MethodSpec, RatingRecord, validate_dataset
from .errors import DatasetValidationError, DomainError, ParseError
from .pipeline import ExperimentConfig, MetricsReport, Protocol, ReportCell
from .predictor import PredictorModel, TrainConfig

_FIXED_COLUMNS = ("user_id", "item_id", "overall")


def format_rating(value: float) -> str:
    """Integral ratings print bare, predicted values keep full precision."""
    f = float(value)
    return str(int(f)) if f.is_integer() else repr(f)


@contextlib.contextmanager
def _reading(path: Path):
    """A file that cannot be read or is not UTF-8, as a ParseError naming
    it. Readers decode ``utf-8-sig``, dropping a BOM."""
    try:
        yield
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc


def _read_json(path: Path):
    """The JSON document in ``path``; a ParseError names the file when it
    is not JSON, holds an integer past the digit limit or nests too deep."""
    with _reading(path):
        text = path.read_text(encoding="utf-8-sig")
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError covers JSONDecodeError
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc


def _read_csv(path: str | Path, *, vectors: bool):
    """(path, criterion names, rows) of a header-checked rating CSV, or with
    ``vectors`` a predicted-vector CSV. ``rows`` lazily yields (line, user,
    item, cells, values) per non-blank row, ``values`` being the floats of
    ``cells``: the overall and criteria cells, or with ``vectors`` the
    criteria cells alone. A ParseError names the line and the column."""
    path = Path(path)

    def numbered():  # each row by the file line it starts on, streamed
        line = 1
        with _reading(path), path.open(encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            try:
                for row in reader:
                    if row:
                        yield line, list(map(str.strip, row))
                    line = reader.line_num + 1
            except csv.Error as exc:  # such as an unclosed quote running past the field limit
                raise ParseError(f"{path}: line {line}: {exc}") from exc
    rows = numbered()
    header_line, header = next(rows, (0, None))
    if header is None:
        raise ParseError(f"{path}: no header (file is empty)")
    if len(header) >= 4 and tuple(header[:3]) == _FIXED_COLUMNS:
        first = 3
    elif vectors and len(header) >= 3 and tuple(header[:2]) == _FIXED_COLUMNS[:2]:
        first = 2
    else:
        raise ParseError(
            f"{path}: line {header_line}: header must be user_id,item_id"
            f"{'[,overall]' if vectors else ',overall'},<criterion,...>, "
            f"got {','.join(header)}")
    names = header[first:]
    if len(set(names)) != len(names) or not all(names):
        raise ParseError(
            f"{path}: line {header_line}: criterion names must be distinct and non-empty")
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
            except ValueError:  # locate the first bad cell
                for column, cell in zip(columns, cells):
                    try:
                        float(cell)
                    except ValueError as exc:
                        raise ParseError(f"{path}: line {line}: {column} value "
                                         f"{cell!r} is not a number") from exc
            yield line, row[0], row[1], cells, values
    return path, names, parsed()


def load_dataset(path: str | Path) -> Dataset:
    """Read and validate a rating CSV on the fixed 1-5 scale.

    Raises ParseError with a line number on malformed rows, and
    DatasetValidationError listing every invariant violation at once,
    each by its line.
    """
    path, names, rows = _read_csv(path, vectors=False)
    lines, records = [], []
    for line, user, item, _, values in rows:
        lines.append(line)
        records.append(RatingRecord(user, item, values[0], values[1:]))
    dataset = Dataset(criteria_names=names, records=tuple(records))
    violations = validate_dataset(dataset)
    if violations:
        raise DatasetValidationError(violations, f"{path}: " + "; ".join(
            v.at(f"line {lines[v.record_index]}") for v in violations))
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
    continuous and are not checked against a rating scale. Rows may come
    in any order; each ``CandidateSet`` keeps its items in id order.
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
_TRAIN_KEYS = {f.name for f in fields(TrainConfig)}
_JSON_SHAPES = {  # the JSON value each structured key must hold
    "train": (lambda v: isinstance(v, dict), "an object"),
    "methods": (lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v),
                "a list of method labels"),
    "n_values": (lambda v: isinstance(v, list), "a list of integers"),
    "protocol": (lambda v: isinstance(v, str), "a string")}


def experiment_config_from_dict(doc: dict, *,
                                dataset_path: str | None = None) -> ExperimentConfig:
    """Build an ExperimentConfig, rejecting unknown keys and misshapen values.

    A ParseError names an unknown key or a key whose JSON value has the
    wrong shape (an object, list or string where one is due). Each value's
    type and range is checked by ``ExperimentConfig`` and ``TrainConfig``,
    whose DomainError names the key too.
    """
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise ParseError(f"unknown experiment config keys: {sorted(unknown)}")
    for key, (test, expected) in _JSON_SHAPES.items():
        if key in doc and not test(doc[key]):
            raise ParseError(f"config key {key!r} must be {expected}, got {doc[key]!r}")
    unknown = set(doc.get("train", {})) - _TRAIN_KEYS
    if unknown:
        raise ParseError(f"unknown train config keys: {sorted(unknown)}")
    values = {**doc, "train": TrainConfig(**doc.get("train", {})),
              "methods": tuple(MethodSpec.parse(s) for s in doc.get("methods", ["pr"]))}
    if "protocol" in doc:
        values["protocol"] = Protocol.parse(doc["protocol"])
    return ExperimentConfig(**values, dataset_path=dataset_path)


def load_experiment_config(path: str | Path, *,
                           dataset_path: str | None = None) -> ExperimentConfig:
    path = Path(path)
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: config must be a JSON object")
    try:
        return experiment_config_from_dict(doc, dataset_path=dataset_path)
    except (ParseError, DomainError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


_CELL_FIELDS = tuple(f.name for f in fields(ReportCell))


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
    doc = _read_json(path)
    try:
        cells = tuple(ReportCell(**cell) for cell in doc["cells"])
        return MetricsReport(metadata=doc["metadata"], cells=cells)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"{path}: not a report file: {exc}") from exc


_MODEL_FORMAT = "mcrank-model"
_MODEL_VERSION = 1
# each parameter array's axes: criteria (m), users (u), items (i), latent dim (d)
_MODEL_ARRAYS = {"global_means": "m", "user_biases": "mu", "item_biases": "mi",
                 "user_factors": "mud", "item_factors": "mid"}


def save_model(model: PredictorModel, path: str | Path) -> None:
    """Write the model as a versioned JSON parameter dump (exact round-trip)."""
    doc = {
        "format": _MODEL_FORMAT,
        "version": _MODEL_VERSION,
        "criteria": list(model.criteria_names),
        "users": list(model.user_ids),
        "items": list(model.item_ids),
        "scale": list(SCALE),
        "dim": model.latent_dim,
        **{key: getattr(model, key).tolist() for key in _MODEL_ARRAYS},
        "loss_history": [list(h) for h in model.loss_history],
    }
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def load_model(path: str | Path) -> PredictorModel:
    """A ``save_model`` file; any other file is a ParseError naming it."""
    path = Path(path)
    doc = _read_json(path)
    if not isinstance(doc, dict) or doc.get("format") != _MODEL_FORMAT:
        raise ParseError(f"{path}: not a {_MODEL_FORMAT} file")
    if doc.get("version") != _MODEL_VERSION:
        raise ParseError(f"{path}: unsupported model version {doc.get('version')}")
    if doc.get("scale") != list(SCALE):
        raise ParseError(f"{path}: model scale {doc.get('scale')!r} is not {list(SCALE)}")
    try:
        ids = {key: doc[key] for key in ("criteria", "users", "items")}
        sizes = dict(zip("mui", map(len, ids.values())), d=int(doc["dim"]))
        arrays = {key: np.asarray(doc[key], dtype=np.float64) for key in _MODEL_ARRAYS}
        loss_history = tuple(tuple(h) for h in doc["loss_history"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: not a model file: {exc!r}") from exc
    for key, value in ids.items():
        if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
            raise ParseError(f"{path}: model {key} must be a list of strings")
        if repeated := [v for v, n in Counter(value).items() if n > 1]:
            raise ParseError(f"{path}: model {key} repeats the id {repeated[0]!r}")
    for key, axes in _MODEL_ARRAYS.items():
        if arrays[key].shape != (shape := tuple(map(sizes.get, axes))):
            raise ParseError(f"{path}: model {key} has shape {arrays[key].shape}, expected {shape}")
    return PredictorModel(
        criteria_names=tuple(ids["criteria"]), user_ids=tuple(ids["users"]),
        item_ids=tuple(ids["items"]), latent_dim=sizes["d"],
        loss_history=loss_history, **arrays)
