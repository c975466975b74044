"""Output checks for one repetition of a workload.

The checks read the artifacts as plain JSON and recompute what they verify
with code of their own, so a defect in the package cannot hide itself.
Each check returns a message when it fails and None when it passes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional

ACU_TOLERANCE = 1e-12
MAX_PIECES_PER_CLAIM = 4
MAX_WORDS_PER_PIECE = 300
#: Files whose bytes legitimately differ between repetitions: the echoed
#: config holds the run-directory layout, the record store holds timestamps.
UNDIGESTED = ("resolved_config.json", "store.jsonl")

#: Desirable direction of each verdict's probability change, per stance, in
#: (True, None, False) order.
DESIRABILITY = {
    "supports": (1, -1, -1),
    "insufficient-supports": (1, 1, -1),
    "insufficient-neutral": (-1, 1, -1),
    "insufficient-contradictory": (-1, 1, -1),
    "insufficient-refutes": (-1, 1, 1),
    "refutes": (-1, -1, 1),
}
_LABEL_KEYS = ("p_true", "p_none", "p_false")


def rows(path: Path) -> list[dict]:
    """Data rows of a JSON Lines artifact, header line excluded."""
    lines = path.read_text(encoding="utf-8").splitlines()
    parsed = [json.loads(line) for line in lines if line.strip()]
    return [row for row in parsed if row.get("kind") != "header"]


def body(path: Path) -> bytes:
    """Bytes of a JSON Lines artifact after its header line."""
    return path.read_bytes().split(b"\n", 1)[1]


def delta_p(p_with: float, p_without: float) -> float:
    """Rescaled change: rise over the room to 1, fall over the room to 0."""
    if p_with >= p_without:
        room = 1.0 - p_without
        return 0.0 if room == 0.0 else (p_with - p_without) / room
    return (p_with - p_without) / p_without


def check_acu(scored: Path, evidence: Path, acu_form: str = "sum") -> Optional[str]:
    stances = {row["id"]: row["stance"] for row in rows(evidence)}
    for row in rows(scored):
        signs = DESIRABILITY[stances[row["evidence_id"]]]
        deltas = [
            delta_p(row["probs_with"][key], row["probs_without"][key]) for key in _LABEL_KEYS
        ]
        acu = sum(sign * value for sign, value in zip(signs, deltas))
        if acu_form == "mean":
            acu /= 3
        if abs(acu - row["acu"]) > ACU_TOLERANCE:
            return f"{scored}: ACU of {row['evidence_id']} is {row['acu']!r}, recomputed {acu!r}"
        for label, stored, recomputed in zip(_LABEL_KEYS, row["delta_p"], deltas):
            if abs(stored - recomputed) > ACU_TOLERANCE:
                return f"{scored}: delta_p {label} of {row['evidence_id']} is {stored!r}, recomputed {recomputed!r}"
    return None


def check_scored_count(scored: Path, evidence: Path) -> Optional[str]:
    annotated = sorted(row["id"] for row in rows(evidence) if row.get("stance") is not None)
    scored_ids = sorted(row["evidence_id"] for row in rows(scored))
    if scored_ids != annotated:
        return f"{scored}: {len(scored_ids)} scored pairs for {len(annotated)} stance-annotated pairs"
    return None


def check_vector_count(characteristics: Path, evidence: Path) -> Optional[str]:
    expected = sorted(row["id"] for row in rows(evidence))
    profiled = sorted(row["evidence_id"] for row in rows(characteristics))
    if profiled != expected:
        return f"{characteristics}: {len(profiled)} vectors for {len(expected)} pairs"
    return None


def check_same_rows(recorded: Path, replayed: Path) -> Optional[str]:
    if body(recorded) != body(replayed):
        return f"{replayed}: rows differ from the record pass {recorded}"
    return None


def check_retrieve_caps(evidence: Path) -> Optional[str]:
    per_claim: dict[str, int] = {}
    for row in rows(evidence):
        per_claim[row["claim_id"]] = per_claim.get(row["claim_id"], 0) + 1
        if len(row["text"].split()) > MAX_WORDS_PER_PIECE:
            return f"{evidence}: piece {row['id']} has {len(row['text'].split())} words"
    worst = max(per_claim.values(), default=0)
    if worst > MAX_PIECES_PER_CLAIM:
        return f"{evidence}: a claim has {worst} pieces"
    if not per_claim:
        return f"{evidence}: no evidence retrieved"
    return None


def digests(out: Path) -> dict[str, str]:
    """SHA-256 of every artifact under ``out`` except the undigested ones."""
    return {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name not in UNDIGESTED
    }
