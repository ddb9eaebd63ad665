"""Pass/fail reports: named entries, each with its own check and text line."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class StatEntry:
    """One named estimate with its expected value and tolerance band."""

    name: str
    estimate: float
    expected: float
    tolerance: float
    sample_count: int

    @property
    def passed(self) -> bool:
        return abs(self.estimate - self.expected) <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "estimate": self.estimate,
            "expected": self.expected,
            "tolerance": self.tolerance,
            "sample_count": self.sample_count,
            "pass": self.passed,
        }

    def line(self) -> str:
        return (
            f"{self.name}: estimate={self.estimate:+.6f} "
            f"expected={self.expected:+.6f} tol={self.tolerance:.6f} n={self.sample_count}"
        )


@dataclass
class Report:
    """Named entries (each with `name`, `passed`, `to_dict` and `line`);
    passes iff every entry passes; `footer`, when set, is printed after
    the entries as it is.
    """

    entries: list = field(default_factory=list)
    footer: str = ""

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self) -> list:
        return [e for e in self.entries if not e.passed]

    def to_dict(self) -> dict:
        return {"pass": self.passed, "entries": [e.to_dict() for e in self.entries]}

    def lines(self) -> list[str]:
        out = [f"[{'ok ' if e.passed else 'FAIL'}] {e.line()}" for e in self.entries]
        if self.footer:
            out.append(self.footer)
        return out
