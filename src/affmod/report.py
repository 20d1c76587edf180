"""Machine-readable verification reports (JSON lines + human summary)."""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class VerificationReport:
    """Outcome of replaying one checked claim.

    status is "verified", "failed" or "unknown"; the transcript lists the
    exact algebraic steps so the check can be re-run by hand.
    """

    claim_id: str
    description: str
    status: str
    detail: str = ""
    transcript: list = field(default_factory=list)
    seconds: float = 0.0
    payload: object = None

    @property
    def ok(self) -> bool:
        return self.status != "failed"

    def to_dict(self) -> dict:
        d = {
            "claim_id": self.claim_id,
            "description": self.description,
            "status": self.status,
            "detail": self.detail,
            "transcript": self.transcript,
            "seconds": round(self.seconds, 4),
        }
        if self.payload is not None:
            d["payload"] = self.payload
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def write_json_lines(reports, path: str):
    with open(path, "w") as fh:
        for r in sorted(reports, key=lambda r: r.claim_id):
            fh.write(r.to_json() + "\n")


def summarize(reports) -> str:
    lines = []
    width = max((len(r.claim_id) for r in reports), default=10)
    for r in sorted(reports, key=lambda r: r.claim_id):
        tag = {"verified": "PASS", "failed": "FAIL", "unknown": "????"}[r.status]
        line = f"[{tag}] {r.claim_id:<{width}}  {r.description}"
        if r.detail:
            line += f"  ({r.detail})"
        line += f"  [{r.seconds:.2f}s]"
        lines.append(line)
    n_fail = sum(1 for r in reports if r.status == "failed")
    n_unknown = sum(1 for r in reports if r.status == "unknown")
    lines.append(
        f"{len(reports)} checks: {len(reports) - n_fail - n_unknown} verified, "
        f"{n_fail} failed, {n_unknown} unknown"
    )
    return "\n".join(lines)
