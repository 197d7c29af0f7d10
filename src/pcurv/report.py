"""Pass/fail reporting shared by the validators and the command line tool.

A report is a flat list of named checks.  Every failing check carries a
witness string that reproduces the failure (the inputs echoed back), so a
red report is actionable on its own.
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

    def add(self, name, passed, *, section="core", witness=None, **details):
        self.checks.append(
            CheckResult(name, bool(passed), section=section, witness=witness, details=details)
        )

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }

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
