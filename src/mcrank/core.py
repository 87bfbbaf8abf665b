"""Core domain types: rating data, candidate sets, method specifications.

All types here are immutable after construction and safe to share across
threads. Criteria vectors are plain 1-D float arrays; ``CandidateSet``
checks its (n, M) criteria matrix (2-D, non-empty, finite) when built.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field, fields
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DimensionError, DomainError

RANKING_KINDS = ("pr", "kd", "ar", "mr", "gd", "pg")
MAJOR_KINDS = ("pr", "kd")
SUB_KINDS = ("ar", "mr", "gd", "pg")
SCALE = (1.0, 5.0)  # the (min, max) of every rating file and predicted value
MAX_FLOATS = np.iinfo(np.intp).max // 8  # the most float64 values one numpy array holds


def checked_number(key: str, value, integer: bool = True):
    """An integer ``value`` as a Python int or, unless ``integer``, a finite
    int or float as a Python float; anything else, bools, nan and inf
    included, is a DomainError naming ``key``."""
    kinds = (int, np.integer) if integer else (int, np.integer, float, np.floating)
    if isinstance(value, kinds) and not isinstance(value, bool):
        if integer:
            return int(value)
        with contextlib.suppress(OverflowError):  # an int past the float range
            if math.isfinite(value):
                return float(value)
    raise DomainError(f"config key {key!r} must be "
                      f"{'an integer' if integer else 'a finite number'}, got {value!r}")


def check_config_fields(config, prefix: str = "") -> None:
    """``checked_number`` in place on each int- or float-defaulted field."""
    for f in fields(config):
        if isinstance(f.default, (int, float)):
            object.__setattr__(config, f.name, checked_number(
                prefix + f.name, getattr(config, f.name), isinstance(f.default, int)))


@dataclass(frozen=True)
class RatingRecord:
    """One observed user-item rating: overall value plus per-criterion values."""

    user_id: str
    item_id: str
    overall: float
    criteria: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "criteria", tuple(float(v) for v in self.criteria))
        object.__setattr__(self, "overall", float(self.overall))


@dataclass(frozen=True)
class Dataset:
    """A multi-criteria rating dataset on the fixed ``SCALE``.

    ``criteria_names`` fixes the criterion count M >= 1, and construction
    refuses, with a DimensionError naming it, the first record that does
    not carry M criteria values. Values outside ``SCALE`` and repeated
    pairs are surfaced by ``validate_dataset``, so that callers can report
    them all at once.
    """

    criteria_names: tuple[str, ...]
    records: tuple[RatingRecord, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "criteria_names", tuple(self.criteria_names))
        object.__setattr__(self, "records", tuple(self.records))
        m = len(self.criteria_names)
        if m < 1:
            raise DomainError("dataset needs at least one criterion")
        for idx, rec in enumerate(self.records):
            if len(rec.criteria) != m:
                raise DimensionError(
                    f"record {idx} ({rec.user_id}, {rec.item_id}): expected {m} "
                    f"criteria values, got {len(rec.criteria)}")

    @property
    def n_criteria(self) -> int:
        return len(self.criteria_names)

    def users(self) -> list[str]:
        """Distinct user ids in first-appearance order."""
        return list(dict.fromkeys(r.user_id for r in self.records))

    def items(self) -> list[str]:
        """Distinct item ids in first-appearance order."""
        return list(dict.fromkeys(r.item_id for r in self.records))

    def by_user(self) -> dict[str, list[RatingRecord]]:
        out: dict[str, list[RatingRecord]] = {}
        for r in self.records:
            out.setdefault(r.user_id, []).append(r)
        return out


@dataclass(frozen=True)
class Violation:
    """One dataset invariant violation, with enough context to locate it."""

    kind: str  # "out_of_range" | "duplicate_pair"
    record_index: int
    user_id: str
    item_id: str
    message: str

    def at(self, where: str) -> str:
        """The violation located by ``where``, such as a file line."""
        return f"{where} ({self.user_id}, {self.item_id}): {self.message}"

    def __str__(self) -> str:
        return self.at(f"record {self.record_index}")


def validate_dataset(dataset: Dataset) -> tuple[Violation, ...]:
    """Check every record against the dataset invariants.

    Violations are returned as data, not raised: a bad rating file is an
    expected input, not a programming error. An empty tuple means valid.
    """
    violations: list[Violation] = []
    names = ("overall", *dataset.criteria_names)
    lo, hi = SCALE
    seen: set[tuple[str, str]] = set()
    for idx, rec in enumerate(dataset.records):
        key = (rec.user_id, rec.item_id)
        if key in seen:
            violations.append(
                Violation("duplicate_pair", idx, rec.user_id, rec.item_id,
                          "duplicate (user, item) pair")
            )
        seen.add(key)
        for value, name in zip((rec.overall, *rec.criteria), names):
            if not lo <= value <= hi:
                violations.append(
                    Violation("out_of_range", idx, rec.user_id, rec.item_id,
                              f"{name} rating {value} outside [{lo}, {hi}]")
                )
    return tuple(violations)


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """One user's items to rank, with their (possibly predicted) criteria vectors.

    Stored as an id tuple plus an (n, M) float matrix so that scoring can
    stay vectorized; row j of ``matrix`` is item ``item_ids[j]``. The ids
    are kept as ``str`` in ascending order, the rows reordered with them,
    so a set scores and ranks the same whatever order its rows come in.
    """

    user_id: str
    item_ids: tuple[str, ...]
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        ids = tuple(map(str, self.item_ids))
        mat = np.asarray(self.matrix, dtype=np.float64)
        if mat.ndim != 2:
            raise DimensionError(f"candidate matrix must be 2-D, got shape {mat.shape}")
        if mat.shape[0] != len(ids):
            raise DimensionError(f"{len(ids)} item ids but {mat.shape[0]} criteria rows")
        if mat.shape[0] == 0 or mat.shape[1] == 0:
            raise DimensionError("candidate set must have at least one item and one criterion")
        if not np.all(np.isfinite(mat)):
            raise DimensionError("candidate matrix contains non-finite values")
        order = sorted(range(len(ids)), key=ids.__getitem__)
        ids = tuple(ids[j] for j in order)
        if any(a == b for a, b in zip(ids, ids[1:])):
            raise DomainError(f"duplicate item ids in candidate set for user {self.user_id!r}")
        mat = mat[order]
        mat.flags.writeable = False
        object.__setattr__(self, "item_ids", ids)
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def from_pairs(cls, user_id: str,
                   pairs: Iterable[tuple[str, Sequence[float]]]) -> "CandidateSet":
        pairs = list(pairs)
        ids = [i for i, _ in pairs]
        if not pairs:
            raise DimensionError("candidate set must have at least one item")
        try:
            mat = np.array([v for _, v in pairs], dtype=np.float64)
        except ValueError:
            shapes = sorted({np.shape(v) for _, v in pairs})
            if len(shapes) > 1:
                raise DimensionError(
                    f"criteria vectors of user {user_id!r} differ in shape: "
                    f"{shapes}") from None
            raise
        return cls(user_id=user_id, item_ids=ids, matrix=mat)

    @property
    def n(self) -> int:
        return len(self.item_ids)

    @property
    def n_criteria(self) -> int:
        return int(self.matrix.shape[1])


@dataclass(frozen=True)
class MethodSpec:
    """Tagged choice of ranking method.

    Kinds: ``pr`` (Pareto ranking), ``kd`` (k-dominance, needs ``k`` in
    [0, 1]), ``ar``/``mr``/``gd``/``pg`` (preference ordering), and
    ``hybrid`` (a pr/kd major plus an ar/mr/gd/pg subsort). Built as
    ``MethodSpec(kind, k=..., major=..., sub=...)``, or from a label by ``parse``.
    """

    kind: str
    k: float | None = None
    major: "MethodSpec | None" = None
    sub: "MethodSpec | None" = None

    def __post_init__(self):
        if self.kind == "hybrid":
            if self.major is None or self.major.kind not in MAJOR_KINDS:
                raise DomainError("hybrid major must be pr or kd")
            if self.sub is None or self.sub.kind not in SUB_KINDS:
                raise DomainError("hybrid sub must be one of ar, mr, gd, pg")
            if self.k is not None:
                raise DomainError("k belongs on the major spec, not the hybrid")
        elif self.kind == "kd":
            if self.k is None:
                raise DomainError("kd requires a relaxation factor k")
            # -0.0 + 0.0 is 0.0: kd:-0 is kd:0, one method with one label
            object.__setattr__(self, "k", float(self.k) + 0.0)
            if not 0.0 <= self.k <= 1.0:
                raise DomainError(f"relaxation factor k must lie in [0, 1], got {self.k}")
        elif self.kind in RANKING_KINDS:
            if self.k is not None:
                raise DomainError(f"method {self.kind} does not take k")
            if self.major is not None or self.sub is not None:
                raise DomainError(f"method {self.kind} does not take major/sub")
        else:
            raise DomainError(f"unknown ranking method {self.kind!r}")

    @classmethod
    def parse(cls, text: str) -> "MethodSpec":
        """Parse a compact method label.

        Grammar: ``pr``, ``kd:K``, ``ar``, ``mr``, ``gd``, ``pg``, or
        ``<major>+<sub>`` for hybrids, e.g. ``kd:0.5+pg``.
        """
        text = text.strip().lower()
        if text.count("+") > 1:
            raise DomainError(f"hybrid {text!r} must be <major>+<sub>, with one '+'")
        if "+" in text:
            major_txt, _, sub_txt = text.partition("+")
            return cls("hybrid", major=cls.parse(major_txt), sub=cls.parse(sub_txt))
        head, sep, ktxt = text.partition(":")
        if head == "kd":
            if not sep or not ktxt:
                raise DomainError("kd method needs a k value, e.g. kd:0.5")
            try:
                k = float(ktxt)
            except ValueError as exc:
                raise DomainError(f"bad k value {ktxt!r}") from exc
            return cls("kd", k=k)
        if text in RANKING_KINDS:
            return cls(text)
        raise DomainError(f"unknown ranking method {text!r}")

    @property
    def label(self) -> str:
        """Canonical compact label; ``parse(label)`` round-trips."""
        if self.kind == "kd":
            text = f"{self.k:g}"
            return f"kd:{text if float(text) == self.k else repr(self.k)}"
        if self.kind == "hybrid":
            return f"{self.major.label}+{self.sub.label}"
        return self.kind


@dataclass(frozen=True)
class ScoredList:
    """Items with final ranking scores, best first.

    Invariant: scores are non-increasing, and within equal scores item
    ids strictly ascend; the constructor checks it, and ``from_pairs``
    sorts unordered pairs first. The deterministic id tie-break replaces
    the unstable "random sequence among equals" behaviour.
    """

    entries: tuple[tuple[str, float], ...]

    def __post_init__(self):
        entries = tuple((str(i), float(s)) for i, s in self.entries)
        object.__setattr__(self, "entries", entries)
        for (id_a, s_a), (id_b, s_b) in zip(entries, entries[1:]):
            if s_b > s_a:
                raise DomainError("scored list must be non-increasing in score")
            if s_b == s_a and not id_a < id_b:
                raise DomainError("tied scores must be ordered by ascending item id")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, float]]) -> "ScoredList":
        ordered = sorted(((str(i), float(s)) for i, s in pairs),
                         key=lambda e: (-e[1], e[0]))
        return cls(tuple(ordered))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[tuple[str, float]]:
        return iter(self.entries)

    def __getitem__(self, idx):
        return self.entries[idx]

    @property
    def item_ids(self) -> list[str]:
        return [i for i, _ in self.entries]

    @property
    def scores(self) -> list[float]:
        return [s for _, s in self.entries]
