"""Core domain types: rating data, candidate sets, method specifications.

All types here are immutable after construction and safe to share across
threads. Criteria vectors are plain 1-D float arrays; ``CandidateSet``
checks its (n, M) criteria matrix (2-D, non-empty, finite) when built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DimensionError, DomainError

RANKING_KINDS = ("pr", "kd", "ar", "mr", "gd", "pg")
MAJOR_KINDS = ("pr", "kd")
SUB_KINDS = ("ar", "mr", "gd", "pg")


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
    """A multi-criteria rating dataset on a fixed scale.

    ``criteria_names`` fixes the criterion count M; every record is
    expected to carry M criteria values within [scale_min, scale_max].
    Construction checks only the structural invariants (M >= 1, ordered
    scale); per-record problems are surfaced by ``validate_dataset`` so
    that callers can report them all at once.
    """

    criteria_names: tuple[str, ...]
    records: tuple[RatingRecord, ...] = ()
    scale_min: float = 1.0
    scale_max: float = 5.0

    def __post_init__(self):
        object.__setattr__(self, "criteria_names", tuple(self.criteria_names))
        object.__setattr__(self, "records", tuple(self.records))
        if len(self.criteria_names) < 1:
            raise DomainError("dataset needs at least one criterion")
        if not self.scale_min < self.scale_max:
            raise DomainError(
                f"scale_min must be below scale_max, got [{self.scale_min}, {self.scale_max}]"
            )

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

    kind: str  # "out_of_range" | "duplicate_pair" | "criteria_length"
    record_index: int
    user_id: str
    item_id: str
    message: str

    def __str__(self) -> str:
        return f"record {self.record_index} ({self.user_id}, {self.item_id}): {self.message}"


@dataclass(frozen=True)
class ValidationResult:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_dataset(dataset: Dataset) -> ValidationResult:
    """Check every record against the dataset invariants.

    Violations are returned as data, not raised: a bad rating file is an
    expected input, not a programming error.
    """
    violations: list[Violation] = []
    m = dataset.n_criteria
    lo, hi = dataset.scale_min, dataset.scale_max
    seen: set[tuple[str, str]] = set()
    for idx, rec in enumerate(dataset.records):
        key = (rec.user_id, rec.item_id)
        if key in seen:
            violations.append(
                Violation("duplicate_pair", idx, rec.user_id, rec.item_id,
                          "duplicate (user, item) pair")
            )
        seen.add(key)
        if len(rec.criteria) != m:
            violations.append(
                Violation("criteria_length", idx, rec.user_id, rec.item_id,
                          f"expected {m} criteria values, got {len(rec.criteria)}")
            )
        for value, name in [(rec.overall, "overall")] + [
            (v, dataset.criteria_names[i] if i < m else f"criterion {i}")
            for i, v in enumerate(rec.criteria)
        ]:
            if not np.isfinite(value) or value < lo or value > hi:
                violations.append(
                    Violation("out_of_range", idx, rec.user_id, rec.item_id,
                              f"{name} rating {value} outside [{lo}, {hi}]")
                )
    return ValidationResult(tuple(violations))


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """One user's items to rank, with their (possibly predicted) criteria vectors.

    Stored as an id tuple plus an (n, M) float matrix so that scoring can
    stay vectorized; ``candidates`` exposes the (item_id, vector) view.
    """

    user_id: str
    item_ids: tuple[str, ...]
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "item_ids", tuple(self.item_ids))
        mat = np.asarray(self.matrix, dtype=np.float64)
        if mat.ndim != 2:
            raise DimensionError(f"candidate matrix must be 2-D, got shape {mat.shape}")
        if mat.shape[0] != len(self.item_ids):
            raise DimensionError(
                f"{len(self.item_ids)} item ids but {mat.shape[0]} criteria rows"
            )
        if mat.shape[0] == 0 or mat.shape[1] == 0:
            raise DimensionError("candidate set must have at least one item and one criterion")
        if not np.all(np.isfinite(mat)):
            raise DimensionError("candidate matrix contains non-finite values")
        if len(set(self.item_ids)) != len(self.item_ids):
            raise DomainError(f"duplicate item ids in candidate set for user {self.user_id!r}")
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def from_pairs(cls, user_id: str,
                   pairs: Iterable[tuple[str, Sequence[float]]]) -> "CandidateSet":
        pairs = list(pairs)
        ids = tuple(str(i) for i, _ in pairs)
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

    @property
    def candidates(self) -> tuple[tuple[str, np.ndarray], ...]:
        return tuple((i, self.matrix[idx]) for idx, i in enumerate(self.item_ids))


@dataclass(frozen=True)
class MethodSpec:
    """Tagged choice of ranking method.

    Kinds: ``pr`` (Pareto ranking), ``kd`` (k-dominance, needs ``k`` in
    [0, 1]), ``ar``/``mr``/``gd``/``pg`` (preference ordering), and
    ``hybrid`` (a pr/kd major plus an ar/mr/gd/pg subsort).
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
            object.__setattr__(self, "k", float(self.k))
            if not 0.0 <= self.k <= 1.0:
                raise DomainError(f"relaxation factor k must lie in [0, 1], got {self.k}")
        elif self.kind in RANKING_KINDS:
            if self.k is not None:
                raise DomainError(f"method {self.kind} does not take k")
            if self.major is not None or self.sub is not None:
                raise DomainError(f"method {self.kind} does not take major/sub")
        else:
            raise DomainError(f"unknown ranking method {self.kind!r}")

    # -- constructors ---------------------------------------------------
    @classmethod
    def pr(cls) -> "MethodSpec":
        return cls("pr")

    @classmethod
    def kd(cls, k: float) -> "MethodSpec":
        return cls("kd", k=k)

    @classmethod
    def ar(cls) -> "MethodSpec":
        return cls("ar")

    @classmethod
    def mr(cls) -> "MethodSpec":
        return cls("mr")

    @classmethod
    def gd(cls) -> "MethodSpec":
        return cls("gd")

    @classmethod
    def pg(cls) -> "MethodSpec":
        return cls("pg")

    @classmethod
    def hybrid(cls, major: "MethodSpec", sub: "MethodSpec") -> "MethodSpec":
        return cls("hybrid", major=major, sub=sub)

    @classmethod
    def parse(cls, text: str) -> "MethodSpec":
        """Parse a compact method label.

        Grammar: ``pr``, ``kd:K``, ``ar``, ``mr``, ``gd``, ``pg``, or
        ``<major>+<sub>`` for hybrids, e.g. ``kd:0.5+pg``.
        """
        text = text.strip().lower()
        if "+" in text:
            major_txt, _, sub_txt = text.partition("+")
            return cls.hybrid(cls.parse(major_txt), cls.parse(sub_txt))
        if text.startswith("kd"):
            _, sep, ktxt = text.partition(":")
            if not sep or not ktxt:
                raise DomainError("kd method needs a k value, e.g. kd:0.5")
            try:
                k = float(ktxt)
            except ValueError as exc:
                raise DomainError(f"bad k value {ktxt!r}") from exc
            return cls.kd(k)
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
    ids strictly ascend. Construction from unordered pairs goes through
    ``from_pairs`` which sorts; the deterministic id tie-break replaces
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
    def _ordered(cls, entries: tuple[tuple[str, float], ...]) -> "ScoredList":
        """``entries`` of str ids and float scores, already known to hold
        the invariant (ordered and checked by ranking, or a prefix of a
        valid list), taken without a second check."""
        scored = object.__new__(cls)
        object.__setattr__(scored, "entries", entries)
        return scored

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
