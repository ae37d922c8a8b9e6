"""Check and scenario reports with a stable text and line-oriented rendering."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class CheckReport:
    """Outcome of a single check.

    A failing report always carries a witness payload whose entries are real
    toolkit objects (states, updates, renamings, term sets) so the violation
    can be fed back through the primitive operations and reproduced.

    ``stats`` maps names, in order, to ``int`` counts and ``"pass"``/``"fail"``
    verdicts.  A report with stats has their ``name=value`` rendering as its
    notes, made on construction, so ``dataclasses.replace`` renders it again.
    """

    passed: bool
    label: str
    detail: str = ""
    witness: dict[str, Any] | None = None
    notes: tuple[str, ...] = ()
    stats: dict[str, int | str] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.stats:
            self.notes = tuple(f"{name}={value}" for name, value in self.stats.items())

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def line(self) -> str:
        head = "PASS" if self.passed else "FAIL"
        return f"{head} {self.label}" + (f" {self.detail}" if self.detail else "")

    def lines(self) -> list[str]:
        return [self.line()]


@dataclass
class ScenarioReport:
    """Aggregate of the assertion-level reports produced by one scenario."""

    name: str
    checks: list[CheckReport] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, passed: bool, label: str, detail: str = "",
            witness: dict[str, Any] | None = None) -> CheckReport:
        report = CheckReport(passed, f"{self.name}.{label}", detail, witness)
        self.checks.append(report)
        return report

    def lines(self) -> list[str]:
        out = [c.line() for c in self.checks]
        out.append(f"{'PASS' if self.passed else 'FAIL'} {self.name}")
        return out
