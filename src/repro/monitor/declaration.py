"""Monitor declarations — the "visible part" of the augmented construct.

Section 3 splits the extension into a visible part (information the user
supplies in the monitor declaration) and an invisible part (the internal
detection machinery).  Section 4 gives the declaration form::

    MonitorName: Monitor (type);
        Declarations of local variables;
        Declarations of condition variables;
        Specification of procedure call orders;
        Declarations of monitor procedures;
        ...

:class:`MonitorDeclaration` is that form as a value object.  The procedure
call order is a path-expression string (paper reference [3]) compiled by
:mod:`repro.pathexpr`; the detector's Algorithm-3 checks each process's call
sequence against it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import DeclarationError
from repro.ids import Cond, Pname
from repro.monitor.classification import MonitorType
from repro.monitor.semantics import Discipline

__all__ = ["MonitorDeclaration"]

#: Conventional procedure names recognised by Algorithm-3's built-in
#: Request/Release pairing (the paper uses Acquire/Request and Release).
ACQUIRE_NAMES = frozenset({"Acquire", "Request"})
RELEASE_NAMES = frozenset({"Release"})


@dataclass(frozen=True)
class MonitorDeclaration:
    """Static specification of one monitor.

    Parameters
    ----------
    name:
        Monitor name (used in reports and event rendering).
    mtype:
        Functional classification, selects which algorithms the detector
        runs (see :class:`~repro.monitor.classification.MonitorType`).
    procedures:
        Names of the monitor procedures user processes may invoke.
    conditions:
        Names of the condition variables.
    call_order:
        Optional path-expression source declaring the per-process partial
        order of procedure calls, e.g. ``"(Request ; Release)*"`` for an
        allocator.  ``None`` means no ordering constraint is declared.
    rmax:
        Maximum number of resources (``Rmax``).  Required for
        communication-coordinator monitors (it is the buffer capacity in
        the paper's integrity constraints), optional otherwise.
    discipline:
        Signalling discipline; the paper's algorithms assume
        ``SIGNAL_EXIT``.
    """

    name: str
    mtype: MonitorType
    procedures: tuple[Pname, ...]
    conditions: tuple[Cond, ...] = ()
    call_order: Optional[str] = None
    rmax: Optional[int] = None
    discipline: Discipline = Discipline.SIGNAL_EXIT

    def __post_init__(self) -> None:
        if not self.name:
            raise DeclarationError("monitor name must be non-empty")
        if not self.procedures:
            raise DeclarationError(
                f"monitor {self.name!r} declares no procedures"
            )
        if len(set(self.procedures)) != len(self.procedures):
            raise DeclarationError(
                f"monitor {self.name!r} declares duplicate procedure names"
            )
        if not all(isinstance(cond, str) for cond in self.conditions):
            # The record hook relies on it: a Wait always names a condition.
            raise DeclarationError(
                f"monitor {self.name!r}: condition names must be strings"
            )
        if len(set(self.conditions)) != len(self.conditions):
            raise DeclarationError(
                f"monitor {self.name!r} declares duplicate condition names"
            )
        overlap = set(self.procedures) & set(self.conditions)
        if overlap:
            raise DeclarationError(
                f"monitor {self.name!r}: names used for both procedures and "
                f"conditions: {sorted(overlap)}"
            )
        if self.mtype.needs_resource_checking and self.rmax is None:
            raise DeclarationError(
                f"communication-coordinator monitor {self.name!r} must "
                "declare rmax (the buffer capacity)"
            )
        if self.rmax is not None and self.rmax <= 0:
            raise DeclarationError(
                f"monitor {self.name!r}: rmax must be positive, got {self.rmax}"
            )

    # ------------------------------------------------------------- predicates

    def has_procedure(self, pname: Pname) -> bool:
        return pname in self.procedures

    def has_condition(self, cond: Cond) -> bool:
        return cond in self.conditions

    @property
    def acquire_procedures(self) -> tuple[Pname, ...]:
        """Declared procedures playing the Request/Acquire role."""
        return tuple(p for p in self.procedures if p in ACQUIRE_NAMES)

    @property
    def release_procedures(self) -> tuple[Pname, ...]:
        """Declared procedures playing the Release role."""
        return tuple(p for p in self.procedures if p in RELEASE_NAMES)

    def render(self) -> str:
        """Pretty-print in the paper's declaration form (Section 4)."""
        lines = [f"{self.name}: Monitor ({self.mtype.value});"]
        if self.conditions:
            lines.append(f"  condition {', '.join(self.conditions)};")
        if self.call_order:
            lines.append(f"  order {self.call_order};")
        for proc in self.procedures:
            lines.append(f"  procedure {proc};")
        if self.rmax is not None:
            lines.append(f"  rmax = {self.rmax};")
        if self.discipline is not Discipline.SIGNAL_EXIT:
            lines.append(f"  discipline {self.discipline.value};")
        lines.append(f"End {self.name}.")
        return "\n".join(lines)

    @classmethod
    def parse(cls, text: str) -> "MonitorDeclaration":
        """Parse the Section-4 declaration form back into a declaration.

        Inverse of :meth:`render` — ``parse(decl.render()) == decl`` (up to
        field equality).  The format is line-oriented::

            Name: Monitor (type);
              condition c1, c2;
              order (Request ; Release)*;
              procedure P;
              rmax = N;
              discipline signal-and-wait;
            End Name.
        """
        lines = [line.strip() for line in text.strip().splitlines()]
        lines = [line for line in lines if line]
        if len(lines) < 2:
            raise DeclarationError("declaration too short to parse")
        header = lines[0]
        match = re.fullmatch(
            r"(?P<name>\w[\w-]*)\s*:\s*Monitor\s*\((?P<type>[\w-]+)\)\s*;",
            header,
        )
        if match is None:
            raise DeclarationError(f"malformed declaration header: {header!r}")
        name = match.group("name")
        try:
            mtype = MonitorType(match.group("type"))
        except ValueError:
            raise DeclarationError(
                f"unknown monitor type {match.group('type')!r}"
            ) from None
        footer = lines[-1]
        if footer != f"End {name}.":
            raise DeclarationError(
                f"declaration footer {footer!r} does not close {name!r}"
            )
        conditions: list[Cond] = []
        procedures: list[Pname] = []
        call_order: Optional[str] = None
        rmax: Optional[int] = None
        discipline = Discipline.SIGNAL_EXIT
        for line in lines[1:-1]:
            body = line.rstrip(";").strip()
            if body.startswith("condition "):
                conditions.extend(
                    part.strip() for part in body[len("condition "):].split(",")
                )
            elif body.startswith("order "):
                call_order = body[len("order "):].strip()
            elif body.startswith("procedure "):
                procedures.append(body[len("procedure "):].strip())
            elif body.startswith("rmax"):
                try:
                    rmax = int(body.split("=", 1)[1])
                except (IndexError, ValueError):
                    raise DeclarationError(f"malformed rmax line: {line!r}") from None
            elif body.startswith("discipline "):
                try:
                    discipline = Discipline(body[len("discipline "):].strip())
                except ValueError:
                    raise DeclarationError(
                        f"unknown discipline in {line!r}"
                    ) from None
            else:
                raise DeclarationError(f"unrecognised declaration line: {line!r}")
        return cls(
            name=name,
            mtype=mtype,
            procedures=tuple(procedures),
            conditions=tuple(conditions),
            call_order=call_order,
            rmax=rmax,
            discipline=discipline,
        )
