"""Structured pass/fail records for the named verification checks."""

from __future__ import annotations

import json


class VerificationReport:
    """One named check with its parameters, outcome and witness data.

    The status is derived, never stored: a check fails exactly when it has
    a witness, is skipped when nothing failed and it could not run, and
    passes otherwise. The canonical JSON rendering excludes the wall-clock
    duration so that reruns with the same parameters and seed are
    byte-identical; durations stay on the object for optional display.
    """

    def __init__(self, check, params, witnesses=None, seed=None,
                 duration=0.0, skipped=False):
        self.check, self.params = check, params
        self.witnesses = [] if witnesses is None else witnesses
        self.seed, self.duration, self.skipped = seed, duration, skipped

    @property
    def status(self):
        if self.witnesses:
            return "fail"
        return "skipped" if self.skipped else "pass"

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
