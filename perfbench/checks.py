"""Output checks and the deterministic work record.

The skyline check re-derives the Pareto front from the returned
profiles with a brute-force dominance test of its own; it never calls
``repro.core.pareto``, so a bug there cannot hide behind itself.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


def dominates(a: tuple[float, ...], b: tuple[float, ...]) -> bool:
    """``a`` is at least as good everywhere and strictly better somewhere."""
    return all(x >= y for x, y in zip(a, b)) and any(x > y for x, y in zip(a, b))


def brute_force_skyline(points: list[tuple[float, ...]]) -> list[int]:
    return [
        i
        for i, point in enumerate(points)
        if not any(dominates(other, point) for j, other in enumerate(points) if j != i)
    ]


def skyline_problem(result) -> str | None:
    """Why ``result``'s skyline is wrong, or ``None`` when it is right."""
    points = []
    for index, alternative in enumerate(result.alternatives):
        if alternative.profile is None:
            return f"alternative {index} has no profile"
        points.append(tuple(alternative.profile.scores.get(c, 0.0) for c in result.characteristics))
    expected = brute_force_skyline(points)
    if sorted(result.skyline_indices) != expected:
        return f"skyline {sorted(result.skyline_indices)} != brute force {expected}"
    return None


def canonical_json(document) -> str:
    """Compact JSON with sorted keys: equal documents give equal text."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def digest(value) -> str:
    """A short stable digest of a text or of a ``repr``-able value."""
    data = value if isinstance(value, str) else repr(value)
    return hashlib.sha256(data.encode("utf-8")).hexdigest()[:16]


class WorkRecordMismatch(RuntimeError):
    """Two runs of one workload and seed did different work."""


def compare_work_record(state_dir: Path, workload: str, seed: int, record: dict) -> Path:
    """Store the first record of ``(workload, seed)``; later ones must match it.

    Records are kept per version of the benchmark's own code, so editing
    the benchmark starts a fresh record instead of a false mismatch.
    """
    sources = sorted(Path(__file__).parent.glob("*.py"))
    version = hashlib.sha256(b"".join(path.read_bytes() for path in sources)).hexdigest()[:12]
    path = state_dir / "records" / f"{workload}-{seed}-{version}.json"
    if path.exists():
        previous = json.loads(path.read_text())
        if previous != record:
            raise WorkRecordMismatch(
                f"work record of {workload} seed {seed} differs from {path}: "
                f"{_first_difference(previous, record)}"
            )
        return path
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp{id(record)}")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
    tmp.replace(path)
    return path


def _first_difference(old, new, where: str = "") -> str:
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            if old.get(key) != new.get(key):
                return _first_difference(old.get(key), new.get(key), f"{where}/{key}")
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for index, (a, b) in enumerate(zip(old, new)):
            if a != b:
                return _first_difference(a, b, f"{where}[{index}]")
    return f"{where or '/'}: {old!r} -> {new!r}"[:400]
