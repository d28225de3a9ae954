"""Tests for the synthetic evaluation corpus."""

import pytest

from repro.workloads.corpus import CorpusGenerator
from repro.workloads.trace import WorkloadClass


@pytest.fixture(scope="module")
def generator():
    return CorpusGenerator(seed=123)


def _three_classes(generator, single_thread, multi_thread, graphics):
    """One ``generate_class`` call per class on one generator, as Fig. 6 makes them."""
    corpus = []
    for workload_class, count in (
        (WorkloadClass.CPU_SINGLE_THREAD, single_thread),
        (WorkloadClass.CPU_MULTI_THREAD, multi_thread),
        (WorkloadClass.GRAPHICS, graphics),
    ):
        corpus.extend(generator.generate_class(workload_class, count))
    return corpus


class TestCorpusGenerator:
    def test_deterministic_for_seed(self):
        first = _three_classes(CorpusGenerator(seed=7), 20, 10, 10)
        second = _three_classes(CorpusGenerator(seed=7), 20, 10, 10)
        assert [w.memory_sensitivity for w in first] == [w.memory_sensitivity for w in second]

    def test_different_seeds_differ(self):
        first = CorpusGenerator(seed=1).generate_class(WorkloadClass.CPU_SINGLE_THREAD, 20)
        second = CorpusGenerator(seed=2).generate_class(WorkloadClass.CPU_SINGLE_THREAD, 20)
        assert [w.memory_sensitivity for w in first] != [w.memory_sensitivity for w in second]

    def test_class_generation(self, generator):
        graphics = generator.generate_class(WorkloadClass.GRAPHICS, 25)
        assert len(graphics) == 25
        assert all(w.workload_class is WorkloadClass.GRAPHICS for w in graphics)
        assert all(w.trace.phases[0].gfx_fraction > 0.5 for w in graphics)

    def test_battery_class_not_supported(self, generator):
        with pytest.raises(ValueError):
            generator.generate_class(WorkloadClass.BATTERY_LIFE, 5)

    def test_sensitivity_spans_a_wide_range(self, generator):
        corpus = generator.generate_class(WorkloadClass.CPU_SINGLE_THREAD, 200)
        sensitivities = [w.memory_sensitivity for w in corpus]
        assert min(sensitivities) < 0.1
        assert max(sensitivities) > 0.5

    def test_single_thread_uses_one_core(self, generator):
        corpus = generator.generate_class(WorkloadClass.CPU_SINGLE_THREAD, 10)
        assert all(w.trace.phases[0].active_cores == 1 for w in corpus)

    def test_all_phases_are_valid(self, generator):
        corpus = _three_classes(generator, 30, 15, 15)
        for workload in corpus:
            for phase in workload.trace.phases:
                assert abs(sum(phase.fraction_vector()) - 1.0) < 1e-6
