"""Tests for phased profiles, the benchmark catalogue and synthetic generators."""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.apps import (
    PhasedProfile,
    PhaseSegment,
    benchmark_names,
    benchmark_spec,
    benchmarks_by_class,
    build_catalog,
    build_phased_profile,
    build_profile,
    expected_class,
    random_phased_profile,
    random_profile,
    random_workload_profiles,
)
from repro.core import AppClass, classify_profile
from repro.errors import ProfileError


class TestPhasedProfile:
    @pytest.fixture()
    def phased(self):
        return build_phased_profile("fotonik3d17", 11, phase_cycle_instructions=1e9)

    def test_single_wraps_stationary_profile(self):
        profile = build_profile("gamess06", 11)
        phased = PhasedProfile.single(profile)
        assert phased.n_phases == 1
        assert not phased.is_phased

    def test_phase_lookup_is_cyclic(self, phased):
        cycle = phased.cycle_instructions
        assert phased.phase_index_at(0.0) == phased.phase_index_at(cycle)
        assert phased.phase_index_at(cycle * 0.95) == phased.phase_index_at(cycle * 1.95)

    def test_fotonik_starts_light_then_streams(self, phased):
        early = phased.profile_at(0.0)
        late = phased.profile_at(phased.cycle_instructions * 0.5)
        assert early.llcmpkc_at(11) < 10.0
        assert late.llcmpkc_at(11) >= 10.0

    def test_instructions_until_phase_change_positive(self, phased):
        position = 0.0
        for _ in range(5):
            step = phased.instructions_until_phase_change(position)
            assert step > 0
            position += step

    def test_cycle_instructions_is_a_left_fold(self):
        # Fractional segments whose compensated sum (math.fsum, and builtin
        # sum() from Python 3.12) differs from the plain left fold: the
        # cycle length must not depend on the interpreter version.
        profile = build_profile("gamess06", 11)
        lengths = [1e8 + 0.1, 2e8 + 0.2, 3e8 + 0.3]
        phased = PhasedProfile(
            name="fractional",
            segments=tuple(PhaseSegment(instructions=n, profile=profile) for n in lengths),
        )
        folded = 0.0
        for n in lengths:
            folded += n
        assert folded != math.fsum(lengths)
        assert phased.cycle_instructions == folded
        assert phased.phase_boundaries()[-1] == folded

    def test_average_bytes_per_miss_is_a_left_fold(self):
        # Weighted terms whose compensated sum differs from the plain left
        # fold: the averaged DRAM traffic must not depend on the interpreter.
        base = build_profile("gamess06", 4)
        lengths = [1e8 + 0.1, 2e8 + 0.2, 3e8 + 0.3, 4e8]
        traffic = [70.1, 80.2, 90.3, 100.7]
        phased = PhasedProfile(
            name="fractional",
            segments=tuple(
                PhaseSegment(instructions=n, profile=replace(base, bytes_per_miss=b))
                for n, b in zip(lengths, traffic)
            ),
        )
        weights = np.array(lengths) / np.sum(lengths)
        terms = [float(w * b) for w, b in zip(weights, traffic)]
        folded = 0.0
        for term in terms:
            folded += term
        assert folded != math.fsum(terms)
        assert phased.average_profile().bytes_per_miss == folded

    def test_phase_boundaries_sum_to_cycle(self, phased):
        assert phased.phase_boundaries()[-1] == pytest.approx(phased.cycle_instructions)

    def test_dominant_profile_is_streaming_for_fotonik(self, phased):
        assert classify_profile(phased.dominant_profile()) is AppClass.STREAMING

    def test_average_profile_uses_harmonic_ipc(self):
        fast = build_profile("gamess06", 4)
        slow = fast.scaled_ipc(0.5)
        phased = PhasedProfile(
            name="mix",
            segments=(
                PhaseSegment(instructions=1e9, profile=fast),
                PhaseSegment(instructions=1e9, profile=slow),
            ),
        )
        average = phased.average_profile()
        expected = 2.0 / (1.0 / fast.ipc_alone + 1.0 / slow.ipc_alone)
        assert average.ipc_alone == pytest.approx(expected)

    def test_mismatched_way_counts_rejected(self):
        a = build_profile("gamess06", 4)
        b = build_profile("gamess06", 8)
        with pytest.raises(ProfileError):
            PhasedProfile(
                name="bad",
                segments=(
                    PhaseSegment(instructions=1e9, profile=a),
                    PhaseSegment(instructions=1e9, profile=b),
                ),
            )

    def test_zero_length_phase_rejected(self):
        profile = build_profile("gamess06", 4)
        with pytest.raises(ProfileError):
            PhaseSegment(instructions=0.0, profile=profile)

    def test_renamed_propagates_to_segments(self, phased):
        other = phased.renamed("copy")
        assert other.name == "copy"
        assert all(seg.profile.name == "copy" for seg in other.segments)


class TestCatalog:
    def test_catalogue_has_the_34_fig5_benchmarks(self):
        assert len(benchmark_names()) == 34

    def test_expected_fig1_benchmarks_present(self):
        names = benchmark_names()
        for required in ("lbm06", "xalancbmk06", "fotonik3d17", "mcf06", "gamess06"):
            assert required in names

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ProfileError):
            benchmark_spec("doom-eternal")

    def test_build_catalog_covers_every_benchmark(self):
        catalog = build_catalog(11)
        assert set(catalog) == set(benchmark_names())

    @pytest.mark.parametrize("name", benchmark_names())
    def test_table1_classification_matches_intended_class(self, name):
        profile = build_profile(name, 11)
        assert classify_profile(profile).value == expected_class(name)

    def test_classes_are_all_represented(self):
        groups = benchmarks_by_class()
        assert len(groups["streaming"]) >= 5
        assert len(groups["sensitive"]) >= 8
        assert len(groups["light"]) >= 10

    def test_fig1_shapes_lbm_vs_xalancbmk(self):
        lbm = build_profile("lbm06", 11)
        xalanc = build_profile("xalancbmk06", 11)
        # Fig. 1: lbm is flat with a huge miss rate; xalancbmk climbs to ~1.8x.
        assert lbm.slowdown_table().max() < 1.06
        assert lbm.llcmpkc_table().min() > 10
        assert xalanc.slowdown_table()[0] > 1.5
        assert xalanc.llcmpkc_table()[-1] < 5

    def test_phased_benchmarks_have_multiple_segments(self):
        for name in ("fotonik3d17", "xz17", "astar06", "mcf06", "xalancbmk06"):
            assert build_phased_profile(name, 11).is_phased

    def test_stationary_benchmarks_have_one_segment(self):
        assert not build_phased_profile("gamess06", 11).is_phased

    def test_profiles_scale_to_other_way_counts(self):
        profile = build_profile("xalancbmk06", 20)
        assert profile.n_ways == 20


class TestSynthetic:
    def test_random_profiles_classify_as_requested(self):
        rng = np.random.default_rng(0)
        for klass in ("sensitive", "streaming", "light"):
            for _ in range(5):
                profile = random_profile(11, klass, rng=rng)
                assert classify_profile(profile).value == klass

    def test_random_workload_respects_size(self):
        profiles = random_workload_profiles(10, 11, rng=3)
        assert len(profiles) == 10
        assert len({p.name for p in profiles}) == 10

    def test_random_workload_rejects_bad_mix(self):
        with pytest.raises(ProfileError):
            random_workload_profiles(4, 11, class_mix={"light": -1.0})

    def test_random_phased_profile_structure(self):
        phased = random_phased_profile(11, rng=7, n_phases=3)
        assert phased.n_phases == 3
        assert phased.cycle_instructions > 0

    def test_unknown_class_rejected(self):
        with pytest.raises(ProfileError):
            random_profile(11, "quantum")

    def test_determinism_with_same_seed(self):
        a = random_profile(11, "sensitive", rng=42)
        b = random_profile(11, "sensitive", rng=42)
        assert a.ipc_table() == pytest.approx(b.ipc_table())
