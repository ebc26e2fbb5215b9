"""Reference material store and dielectric-based candidate matching.

Each record carries the 60 GHz dielectric statistics of one reference
board.  Matching scores a measured dielectric constant against every
record with a Gaussian kernel over the std-normalized distance; a floor
on the std keeps tight records from dominating through division blowup.
Visual candidate pruning removes materials whose (widened) dielectric
interval excludes the measurement, but never empties the candidate set.
"""

import math
from dataclasses import dataclass
from importlib import resources

from .docio import read_document, to_document
from .errors import DocumentError, DomainError

SIGMA_FLOOR = 0.1
DEFAULT_TOP_K = 3


@dataclass(frozen=True)
class MaterialRecord:
    material_id: str
    name: str
    epsilon_mean: float
    epsilon_std: float
    epsilon_low: float
    epsilon_high: float
    source: str = ""

    def __post_init__(self):
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


def check_candidates(candidates, label: str) -> None:
    """Raise DomainError unless ``candidates`` is a non-empty ((name, p), ...)
    sequence of probabilities in [0, 1] that sum to 1, in descending order."""
    if not candidates:
        raise DomainError(f"{label} list must not be empty")
    probs = [p for _, p in candidates]
    if not all(0.0 <= p <= 1.0 for p in probs):
        raise DomainError(f"{label} probabilities must lie in [0, 1]")
    if abs(sum(probs) - 1.0) > 1e-9:
        raise DomainError(f"{label} probabilities must sum to 1")
    if any(a < b - 1e-12 for a, b in zip(probs, probs[1:])):
        raise DomainError(f"{label}s must be ordered by descending probability")


@dataclass(frozen=True)
class RadarCandidateSet:
    """Ranked (material, score) pairs; scores sum to one."""

    candidates: tuple  # ((name, score), ...) descending by score
    measured_epsilon: float

    def __post_init__(self):
        check_candidates(self.candidates, "radar candidate")

    @property
    def names(self) -> tuple:
        return tuple(name for name, _ in self.candidates)

    @property
    def top(self) -> tuple:
        return self.candidates[0]

    def probability(self, name: str) -> float:
        for candidate, score in self.candidates:
            if candidate == name:
                return score
        return 0.0

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
    try:
        eps = entry["epsilon"]
        return MaterialRecord(
            material_id=str(entry["id"]),
            name=str(entry["name"]),
            epsilon_mean=float(eps["mean"]),
            epsilon_std=float(eps["std"]),
            epsilon_low=float(eps["low"]),
            epsilon_high=float(eps["high"]),
            source=str(entry.get("source", "")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DocumentError(f"malformed material record: {exc}") from exc
    except DomainError as exc:
        raise DocumentError(str(exc)) from exc


def load_store(path) -> MaterialStore:
    doc = read_document(path)
    if "materials" not in doc:
        raise DocumentError(f"{path}: missing 'materials' array")
    return MaterialStore(_record_from_entry(e) for e in doc["materials"])


def default_store() -> MaterialStore:
    """The seven-board reference store shipped with the package."""
    with resources.as_file(
        resources.files("radmat").joinpath("data/default_store.json")
    ) as p:
        return load_store(p)


def match(epsilon_measured: float, store: MaterialStore, top_k: int = DEFAULT_TOP_K) -> RadarCandidateSet:
    """Rank store materials against a measured dielectric constant."""
    if epsilon_measured < 1.0:
        raise DomainError("measured dielectric constant must be >= 1")
    if top_k < 1:
        raise DomainError("top_k must be >= 1")
    distances = [
        (abs(epsilon_measured - r.epsilon_mean) / max(r.epsilon_std, SIGMA_FLOOR), r.name)
        for r in store
    ]
    # shift the exponent so the closest material scores exp(0); the shift
    # cancels in the normalization but avoids underflow for distant eps
    d_min = min(d for d, _ in distances)
    scored = [(name, math.exp(-(d**2 - d_min**2) / 2.0)) for d, name in distances]
    scored.sort(key=lambda item: -item[1])
    top = scored[:top_k]
    total = sum(s for _, s in top)
    return RadarCandidateSet(
        candidates=tuple((name, s / total) for name, s in top),
        measured_epsilon=epsilon_measured,
    )


def prune_visual(
    visual_candidates,
    epsilon_measured: float,
    store: MaterialStore,
    tolerance_sigma: float = 2.0,
):
    """Drop visual candidates incompatible with the measured dielectric.

    A candidate is kept when the measurement falls inside its reference
    interval widened by tolerance_sigma * std, or when the material has
    no store record (nothing to judge it against).  If everything is
    incompatible, the least-incompatible candidate survives.  Returned
    probabilities are renormalized; the operation is idempotent.
    """
    if tolerance_sigma <= 0:
        raise DomainError("tolerance_sigma must be positive")
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
            epsilon_measured, widen=tolerance_sigma * record.epsilon_std
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
