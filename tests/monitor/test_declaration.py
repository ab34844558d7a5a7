"""Unit tests for monitor declarations, classification and disciplines."""

import pytest

from repro.errors import DeclarationError
from repro.monitor import Discipline, MonitorDeclaration, MonitorType


def make(**overrides):
    base = dict(
        name="m",
        mtype=MonitorType.OPERATION_MANAGER,
        procedures=("Op",),
    )
    base.update(overrides)
    return MonitorDeclaration(**base)


class TestValidation:
    def test_minimal_declaration(self):
        decl = make()
        assert decl.name == "m"
        assert decl.has_procedure("Op")
        assert not decl.has_procedure("Other")

    def test_empty_name_rejected(self):
        with pytest.raises(DeclarationError):
            make(name="")

    def test_no_procedures_rejected(self):
        with pytest.raises(DeclarationError):
            make(procedures=())

    def test_duplicate_procedures_rejected(self):
        with pytest.raises(DeclarationError):
            make(procedures=("A", "A"))

    def test_duplicate_conditions_rejected(self):
        with pytest.raises(DeclarationError):
            make(conditions=("c", "c"))

    def test_non_string_condition_rejected(self):
        # The record hook relies on it: a Wait on a declared condition
        # always names one, so no declared condition may be None.
        with pytest.raises(DeclarationError):
            make(conditions=(None,))

    def test_name_collision_between_kinds_rejected(self):
        with pytest.raises(DeclarationError):
            make(procedures=("X",), conditions=("X",))

    def test_coordinator_requires_rmax(self):
        with pytest.raises(DeclarationError):
            make(
                mtype=MonitorType.COMMUNICATION_COORDINATOR,
                procedures=("Send", "Receive"),
            )

    def test_nonpositive_rmax_rejected(self):
        with pytest.raises(DeclarationError):
            make(rmax=0)

    def test_conditions_membership(self):
        decl = make(conditions=("full", "empty"))
        assert decl.has_condition("full")
        assert not decl.has_condition("ready")


class TestRoles:
    def test_acquire_release_detection(self):
        decl = make(
            mtype=MonitorType.RESOURCE_ALLOCATOR,
            procedures=("Request", "Release", "Stats"),
        )
        assert decl.acquire_procedures == ("Request",)
        assert decl.release_procedures == ("Release",)

    def test_acquire_alias(self):
        decl = make(procedures=("Acquire", "Release"))
        assert decl.acquire_procedures == ("Acquire",)


class TestRender:
    def test_render_matches_paper_form(self):
        decl = make(
            name="allocator",
            mtype=MonitorType.RESOURCE_ALLOCATOR,
            procedures=("Request", "Release"),
            conditions=("free",),
            call_order="(Request ; Release)*",
        )
        text = decl.render()
        assert text.startswith("allocator: Monitor")
        assert "condition free;" in text
        assert "order (Request ; Release)*;" in text
        assert text.endswith("End allocator.")


class TestClassification:
    def test_algorithm_selection_flags(self):
        assert MonitorType.COMMUNICATION_COORDINATOR.needs_resource_checking
        assert not MonitorType.COMMUNICATION_COORDINATOR.needs_order_checking
        assert MonitorType.RESOURCE_ALLOCATOR.needs_order_checking
        assert not MonitorType.RESOURCE_ALLOCATOR.needs_resource_checking
        assert not MonitorType.OPERATION_MANAGER.needs_order_checking
        assert not MonitorType.OPERATION_MANAGER.needs_resource_checking

    def test_descriptions_nonempty(self):
        for mtype in MonitorType:
            assert mtype.describe()


class TestDisciplines:
    def test_default_discipline_is_signal_exit(self):
        assert make().discipline is Discipline.SIGNAL_EXIT

    def test_discipline_flags(self):
        assert Discipline.SIGNAL_EXIT.waiter_runs_immediately
        assert Discipline.SIGNAL_AND_WAIT.waiter_runs_immediately
        assert not Discipline.SIGNAL_AND_CONTINUE.waiter_runs_immediately
        assert Discipline.SIGNAL_AND_CONTINUE.signaller_keeps_monitor
        assert not Discipline.SIGNAL_AND_WAIT.signaller_keeps_monitor


class TestParse:
    def round_trip(self, **overrides):
        decl = make(**overrides)
        return MonitorDeclaration.parse(decl.render()), decl

    def test_minimal_round_trip(self):
        parsed, original = self.round_trip()
        assert parsed == original

    def test_full_round_trip(self):
        parsed, original = self.round_trip(
            name="allocator",
            mtype=MonitorType.RESOURCE_ALLOCATOR,
            procedures=("Request", "Release"),
            conditions=("free", "busy"),
            call_order="(Request ; Release)*",
        )
        assert parsed == original

    def test_rmax_and_discipline_round_trip(self):
        parsed, original = self.round_trip(
            mtype=MonitorType.COMMUNICATION_COORDINATOR,
            procedures=("Send", "Receive"),
            conditions=("full", "empty"),
            rmax=4,
            discipline=Discipline.SIGNAL_AND_CONTINUE,
        )
        assert parsed == original

    def test_whitespace_tolerated(self):
        text = """
            m: Monitor (resource-operation-manager);
              procedure Op;
            End m.
        """
        parsed = MonitorDeclaration.parse(text)
        assert parsed.name == "m"
        assert parsed.procedures == ("Op",)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "m: Monitor (resource-operation-manager);",
            "m: Monitor (bogus-type);\n  procedure Op;\nEnd m.",
            "m: Monitor (resource-operation-manager);\n  procedure Op;\nEnd other.",
            "m: Monitor (resource-operation-manager);\n  frobnicate X;\nEnd m.",
            "m: Monitor (resource-operation-manager);\n  procedure Op;\n  rmax = many;\nEnd m.",
            "m: Monitor (resource-operation-manager);\n  procedure Op;\n  discipline telepathy;\nEnd m.",
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(DeclarationError):
            MonitorDeclaration.parse(text)
