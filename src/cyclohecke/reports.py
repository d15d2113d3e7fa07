"""Structured pass/fail records for the named verification checks."""

from __future__ import annotations

import json


class VerificationReport:
    """One named check with its parameters, outcome and witness data.

    The canonical JSON rendering excludes the wall-clock duration so that
    reruns with the same parameters and seed are byte-identical; durations
    stay on the object for optional display.
    """

    def __init__(self, check, params, status, witnesses=None, seed=None,
                 duration=0.0):
        if status not in ("pass", "fail", "skipped"):
            raise ValueError(f"bad status {status!r}")
        if status == "fail" and not witnesses:
            raise ValueError("failure reports must carry a witness")
        self.check, self.params, self.status = check, params, status
        self.witnesses = [] if witnesses is None else witnesses
        self.seed, self.duration = seed, duration

    @property
    def passed(self):
        return self.status == "pass"

    def to_dict(self):
        return {
            "check": self.check,
            "params": self.params,
            "status": self.status,
            "witnesses": self.witnesses,
            "seed": self.seed,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def summarize(reports):
    """(passed, failed, skipped) counts for a list of reports."""
    passed = sum(1 for r in reports if r.status == "pass")
    failed = sum(1 for r in reports if r.status == "fail")
    skipped = sum(1 for r in reports if r.status == "skipped")
    return passed, failed, skipped
