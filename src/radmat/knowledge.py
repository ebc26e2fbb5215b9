"""Reference material store and dielectric-based candidate matching.

Each record carries the 60 GHz dielectric statistics of one reference
board.  Matching scores a measured dielectric constant against every
record with a Gaussian kernel over the std-normalized distance and keeps
the TOP_K best; a floor on the std keeps tight records from dominating
through division blowup.  Visual candidate pruning removes materials whose
interval, widened by TOLERANCE_SIGMA stds, excludes the measurement, but
never empties the candidate set.
"""

import math
from dataclasses import dataclass
from importlib import resources

from .docio import check_keys, malformed, read_document, to_document, typed
from .errors import DocumentError, DomainError

SIGMA_FLOOR = 0.1
TOP_K = 3
TOLERANCE_SIGMA = 2.0
_EPSILON_KEYS = ("mean", "std", "low", "high")


@dataclass(frozen=True)
class MaterialRecord:
    """One material's dielectric constant: mean, spread and plausible interval."""
    material_id: str
    name: str
    epsilon_mean: float
    epsilon_std: float
    epsilon_low: float
    epsilon_high: float
    source: str = ""

    def __post_init__(self):
        if not self.name:
            raise DomainError("material name must not be empty")
        if self.epsilon_low < 1.0:
            raise DomainError(f"{self.name}: interval low must be >= 1")
        if not self.epsilon_low <= self.epsilon_mean <= self.epsilon_high:
            raise DomainError(f"{self.name}: need low <= mean <= high")
        if self.epsilon_std < 0.0:
            raise DomainError(f"{self.name}: std must be >= 0")

    def interval_distance(self, epsilon: float, widen: float) -> float:
        """Distance from epsilon to the interval widened by `widen` on each side."""
        lo = self.epsilon_low - widen
        hi = self.epsilon_high + widen
        return max(lo - epsilon, epsilon - hi, 0.0)


def check_candidates(candidates, label: str) -> tuple:
    """``candidates`` as a tuple of (name, p) tuples; DomainError unless it is
    a non-empty sequence of distinct non-empty names whose probabilities lie
    in [0, 1], sum to 1 and descend."""
    candidates = tuple((name, p) for name, p in candidates)
    if not candidates:
        raise DomainError(f"{label} list must not be empty")
    names = [name for name, _ in candidates]
    if not all(names) or len(set(names)) != len(names):
        raise DomainError(f"{label} names must be non-empty and distinct")
    probs = [p for _, p in candidates]
    if not all(0.0 <= p <= 1.0 for p in probs):
        raise DomainError(f"{label} probabilities must lie in [0, 1]")
    if abs(sum(probs) - 1.0) > 1e-9:
        raise DomainError(f"{label} probabilities must sum to 1")
    if any(a < b - 1e-12 for a, b in zip(probs, probs[1:])):
        raise DomainError(f"{label}s must be ordered by descending probability")
    return candidates


@dataclass(frozen=True)
class RadarCandidateSet:
    """Ranked (material, score) pairs; scores sum to one."""

    candidates: tuple  # ((name, score), ...) descending by score
    measured_epsilon: float

    def __post_init__(self):
        check_candidates(self.candidates, "radar candidate")

    @property
    def top(self) -> tuple:
        return self.candidates[0]

    def to_document(self) -> dict:
        return to_document(self, "radar_candidates")


class MaterialStore:
    """Immutable collection of material records, unique by name."""

    def __init__(self, records):
        records = tuple(records)
        if not records:
            raise DocumentError("material store is empty")
        names = [r.name for r in records]
        if len(set(names)) != len(names):
            raise DocumentError("duplicate material names in store")
        self._records = records
        self._by_name = {r.name: r for r in records}

    def __iter__(self):
        return iter(self._records)

    def __len__(self):
        return len(self._records)

    def get(self, name: str) -> MaterialRecord | None:
        return self._by_name.get(name)

    @property
    def names(self) -> tuple:
        return tuple(r.name for r in self._records)


def _record_from_entry(entry: dict) -> MaterialRecord:
    check_keys(entry, "material", ("id", "name", "epsilon", "source", "itu"))
    eps = entry["epsilon"]
    check_keys(eps, "epsilon", _EPSILON_KEYS)
    return MaterialRecord(
        material_id=typed(str, entry["id"], "id"),
        name=typed(str, entry["name"], "name"),
        **{f"epsilon_{k}": typed(float, eps[k], k) for k in _EPSILON_KEYS},
        source=typed(str, entry.get("source", ""), "source"),
    )


def load_store(path) -> MaterialStore:
    doc = read_document(path)
    with malformed(DocumentError, f"{path}: malformed material store"):
        check_keys(doc, "material_store", ("materials", "version", "frequency_ghz", "notes"))
        return MaterialStore(_record_from_entry(e) for e in doc["materials"])


def default_store() -> MaterialStore:
    """The seven-board reference store shipped with the package."""
    with resources.as_file(
        resources.files("radmat").joinpath("data/default_store.json")
    ) as p:
        return load_store(p)


def match(epsilon_measured: float, store: MaterialStore) -> RadarCandidateSet:
    """Rank store materials against a measured dielectric constant."""
    if epsilon_measured < 1.0:
        raise DomainError("measured dielectric constant must be >= 1")
    distances = [
        (abs(epsilon_measured - r.epsilon_mean) / max(r.epsilon_std, SIGMA_FLOOR), r.name)
        for r in store
    ]
    # shift the exponent so the closest material scores exp(0); the shift
    # cancels in the normalization but avoids underflow for distant eps
    d_min = min(d for d, _ in distances)
    scored = [(name, math.exp(-(d**2 - d_min**2) / 2.0)) for d, name in distances]
    scored.sort(key=lambda item: -item[1])
    top = scored[:TOP_K]
    total = sum(s for _, s in top)
    return RadarCandidateSet(
        candidates=tuple((name, s / total) for name, s in top),
        measured_epsilon=epsilon_measured,
    )


def prune_visual(visual_candidates, epsilon_measured: float, store: MaterialStore):
    """Drop visual candidates incompatible with the measured dielectric.

    A candidate is kept when the measurement falls inside its reference
    interval widened by TOLERANCE_SIGMA * std, or when the material has
    no store record (nothing to judge it against).  If everything is
    incompatible, the least-incompatible candidate survives.  Returned
    probabilities are renormalized; the operation is idempotent.
    """
    candidates = list(visual_candidates)
    if not candidates:
        return []

    kept, distances = [], []
    for name, prob in candidates:
        record = store.get(name)
        if record is None:
            kept.append((name, prob))
            distances.append((0.0, name, prob))
            continue
        distance = record.interval_distance(
            epsilon_measured, widen=TOLERANCE_SIGMA * record.epsilon_std
        )
        distances.append((distance, name, prob))
        if distance == 0.0:
            kept.append((name, prob))

    if not kept:
        _, name, prob = min(distances, key=lambda t: t[0])
        kept = [(name, prob)]
    total = sum(p for _, p in kept)
    if total <= 0:
        return [(name, 1.0 / len(kept)) for name, _ in kept]
    return [(name, p / total) for name, p in kept]
