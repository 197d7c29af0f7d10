"""Pass/fail reporting shared by the validators and the command line tool.

A report is a flat list of named checks.  Every failing check carries a
witness string that reproduces the failure (the inputs echoed back), so a
red report is actionable on its own.  :meth:`ValidationReport.check` is
the only routine that records a check: it turns a list of failure
witnesses into a result.  :meth:`ValidationReport.run_cases` runs the
seeded identities, each a named case function, through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckResult:
    name: str
    passed: bool
    section: str = "core"
    witness: str | None = None
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {"name": self.name, "passed": self.passed, "section": self.section}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.details:
            out["details"] = self.details
        return out


@dataclass
class ValidationReport:
    title: str
    checks: list = field(default_factory=list)

    def check(self, name, failures, *, section="core", shown=None, **details):
        """Record a check that passes iff ``failures`` (witness strings) is
        empty; the witness is the first ``shown`` of them (all when None)
        joined by "; "."""
        witness = "; ".join(failures[:shown]) or None
        self.checks.append(CheckResult(name, not failures, section, witness, details))

    def run_cases(self, cases, trials: int):
        """Run each case ``trials`` times, in order, and record it under its
        function name.  A case draws its inputs, compares, and returns a
        witness on failure or None on a pass; the first failing trial's
        witness is shown.  Every trial runs, so cases sharing one random
        source draw the same inputs whether earlier ones pass or fail."""
        for case in cases:
            failures = [w for w in (case() for _ in range(trials)) if w is not None]
            self.check(case.__name__, failures, shown=1, trials=trials)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def render_text(self) -> str:
        lines = [f"== {self.title}: {'PASS' if self.passed else 'FAIL'} =="]
        width = max((len(c.name) for c in self.checks), default=0)
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            suffix = ""
            if c.details:
                suffix = "  " + ", ".join(f"{k}={v}" for k, v in sorted(c.details.items()))
            if c.witness and not c.passed:
                suffix += f"  witness: {c.witness}"
            section = "" if c.section == "core" else f" [{c.section}]"
            lines.append(f"  {status}  {c.name.ljust(width)}{section}{suffix}")
        return "\n".join(lines)
