"""Verdicts, witnesses, and the witness replay registry.

Every checker in the workbench reports through a Verdict.  An unhealthy
verdict always carries a Witness: the violated law, its concrete
arguments, and both evaluated sides.  Witnesses are replayable — the law
name indexes a registered evaluator that recomputes both sides from the
original subject, so a reported violation can be machine-confirmed.
"""

from __future__ import annotations

from dataclasses import dataclass

HEALTHY = "healthy"
UNHEALTHY = "unhealthy"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Witness:
    law: str
    args: dict
    lhs: object
    rhs: object

    def describe(self) -> str:
        bits = ", ".join(f"{k}={v!r}" for k, v in self.args.items())
        return f"{self.law} violated at [{bits}]: lhs={self.lhs!r} rhs={self.rhs!r}"


@dataclass(frozen=True)
class Verdict:
    status: str
    witness: Witness | None = None
    checked: int = 0
    note: str = ""

    @classmethod
    def healthy(cls, checked: int, note: str = "") -> "Verdict":
        return cls(HEALTHY, None, checked, note)

    @classmethod
    def unhealthy(cls, witness: Witness, checked: int) -> "Verdict":
        return cls(UNHEALTHY, witness, checked)

    @classmethod
    def inconclusive(cls, note: str, checked: int = 0, witness: Witness | None = None) -> "Verdict":
        return cls(INCONCLUSIVE, witness, checked, note)

    @property
    def is_healthy(self) -> bool:
        return self.status == HEALTHY

    @property
    def is_unhealthy(self) -> bool:
        return self.status == UNHEALTHY

    def describe(self) -> str:
        if self.status == HEALTHY:
            out = f"healthy ({self.checked} instances checked)"
            if self.note:
                out += f"; {self.note}"
            return out
        if self.status == UNHEALTHY:
            return f"unhealthy: {self.witness.describe()}"
        out = f"inconclusive: {self.note}"
        if self.witness is not None:
            out += f" [{self.witness.describe()}]"
        return out


# law name -> fn(subject, args) -> (lhs, rhs). Populated by checker modules.
_LAW_EVALUATORS: dict = {}


def register_law(name: str, evaluator) -> None:
    _LAW_EVALUATORS[name] = evaluator


def replay_law(subject, law: str, args: dict) -> tuple:
    """Both sides of a registered law at args, recomputed from the subject."""
    try:
        evaluator = _LAW_EVALUATORS[law]
    except KeyError:
        raise KeyError(f"no registered evaluator for law {law!r}") from None
    return evaluator(subject, args)


def replay_witness(subject, witness: Witness) -> tuple:
    """Recompute both sides of a witnessed law from the original subject."""
    return replay_law(subject, witness.law, witness.args)


def witness_is_sound(subject, witness: Witness) -> bool:
    """True when replaying the witness reproduces a strict violation."""
    lhs, rhs = replay_witness(subject, witness)
    return lhs == witness.lhs and rhs == witness.rhs and lhs != rhs
