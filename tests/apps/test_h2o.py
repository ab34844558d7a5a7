"""Tests for the H2O group-rendezvous monitor."""

import pytest

from repro.apps.h2o import WaterFactory
from repro.detection import DetectionSession, DetectorConfig
from repro.history import HistoryDatabase
from repro.kernel import Delay, RandomPolicy, SimKernel
from repro.kernel.explore import explore_seeds


def hydrogen(factory, log, delay=0.0):
    if delay:
        yield Delay(delay)
    molecule = yield from factory.bond_hydrogen()
    log.append(("H", molecule))


def oxygen(factory, log, delay=0.0):
    if delay:
        yield Delay(delay)
    molecule = yield from factory.bond_oxygen()
    log.append(("O", molecule))


def molecule_composition(log):
    """Map molecule index -> (hydrogens, oxygens) that crossed for it."""
    composition: dict[int, list[int]] = {}
    for species, molecule in log:
        entry = composition.setdefault(molecule, [0, 0])
        entry[0 if species == "H" else 1] += 1
    return composition


class TestBonding:
    def test_single_molecule(self, fifo_kernel):
        factory = WaterFactory(fifo_kernel)
        log = []
        fifo_kernel.spawn(hydrogen(factory, log))
        fifo_kernel.spawn(hydrogen(factory, log, delay=0.1))
        fifo_kernel.spawn(oxygen(factory, log, delay=0.2))
        fifo_kernel.run()
        fifo_kernel.raise_failures()
        assert factory.molecules == 1
        assert molecule_composition(log) == {0: [2, 1]}
        assert factory.banked == (0, 0)

    def test_incomplete_molecule_blocks(self, fifo_kernel):
        factory = WaterFactory(fifo_kernel)
        log = []
        fifo_kernel.spawn(hydrogen(factory, log))
        fifo_kernel.spawn(hydrogen(factory, log))
        result = fifo_kernel.run()  # no oxygen: both hydrogens park
        assert result.deadlocked
        assert log == []
        assert factory.banked == (2, 0)

    def test_surplus_atoms_stay_banked(self, fifo_kernel):
        factory = WaterFactory(fifo_kernel)
        log = []
        for __ in range(5):
            fifo_kernel.spawn(hydrogen(factory, log))
        fifo_kernel.spawn(oxygen(factory, log))
        result = fifo_kernel.run()
        assert factory.molecules == 1
        assert len([entry for entry in log if entry[0] == "H"]) == 2
        assert factory.banked == (3, 0)
        assert result.deadlocked  # three hydrogens still parked

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_every_molecule_is_2h_1o(self, seed):
        kernel = SimKernel(RandomPolicy(seed=seed), on_deadlock="stop")
        factory = WaterFactory(kernel, history=HistoryDatabase())
        log = []
        for index in range(12):
            kernel.spawn(hydrogen(factory, log, delay=0.01 * (index % 5)))
        for index in range(6):
            kernel.spawn(oxygen(factory, log, delay=0.015 * (index % 4)))
        kernel.run(until=30)
        kernel.raise_failures()
        assert factory.molecules == 6
        composition = molecule_composition(log)
        assert len(composition) == 6
        assert all(tuple(parts) == (2, 1) for parts in composition.values())


class TestWithDetection:
    def test_clean_run_report_free(self):
        kernel = SimKernel(RandomPolicy(seed=7), on_deadlock="stop")
        factory = WaterFactory(kernel, history=HistoryDatabase())
        detector = DetectionSession(
            kernel,
            monitors=[factory],
            config=DetectorConfig(interval=0.3, tmax=20.0, tio=20.0),
        )
        log = []
        for index in range(8):
            kernel.spawn(hydrogen(factory, log, delay=0.02 * index))
        for index in range(4):
            kernel.spawn(oxygen(factory, log, delay=0.03 * index))
        detector.start()
        kernel.run(until=30)
        kernel.raise_failures()
        assert factory.molecules == 4
        assert detector.clean, [str(r) for r in detector.reports]


class TestSweep:
    def test_composition_invariant_across_schedules(self):
        def build(kernel):
            factory = WaterFactory(kernel)
            log = []
            for index in range(8):
                kernel.spawn(hydrogen(factory, log, delay=0.01 * (index % 3)))
            for index in range(4):
                kernel.spawn(oxygen(factory, log, delay=0.02 * (index % 2)))
            return (factory, log)

        def check(kernel, context):
            factory, log = context
            if factory.molecules != 4:
                return f"expected 4 molecules, got {factory.molecules}"
            composition = molecule_composition(log)
            bad = {
                molecule: parts
                for molecule, parts in composition.items()
                if tuple(parts) != (2, 1)
            }
            if bad:
                return f"malformed molecules: {bad}"
            return None

        result = explore_seeds(build, check, seeds=range(30), until=100)
        assert result.all_passed, result.failures
