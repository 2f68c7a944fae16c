"""End-to-end differential harness: exact vs fast through the full pipeline.

The unit-level budgets (logits, SADs) are pinned by the sibling modules;
here the whole encode -> seek -> label path runs under both precisions over
real scenarios — including the adversarial flickering ``night`` profile —
and the derived *decisions* (selected key frames, per-frame labels,
workload sample sets) are held to the ``detections`` agreement budget.
"""

import numpy as np
import pytest

from repro import Sieve, SystemConfig
from repro.codec import EncoderParameters, VideoEncoder
from repro.contracts import FAST_CONTRACT, selection_agreement
from repro.contracts.contract import agreement_fraction
from repro.core import build_workload
from repro.datasets.generator import DatasetInstance
from repro.datasets.registry import DatasetSpec
from cache_tools import clear_prepared_cache, list_keys
from repro.datasets import diskcache
from repro.experiments.common import (DATASET_CACHE_KIND, WORKLOAD_CACHE_KIND,
                                      ExperimentConfig, prepare_workload)
from repro.video import RESOLUTION_720P, SyntheticScene, make_scenario

#: Scenarios the differential suite sweeps: a daylight Table I feed plus
#: the adversarial flickering low-light profile.
DIFFERENTIAL_SCENARIOS = ("jackson_square", "night")

PARAMETERS = EncoderParameters(gop_size=500, scenecut_threshold=250.0)


@pytest.fixture(scope="module", params=DIFFERENTIAL_SCENARIOS)
def scenario_video(request):
    profile = make_scenario(request.param, duration_seconds=12,
                            render_scale=0.08)
    return SyntheticScene(profile).video()


class TestEncoderAgreement:
    def test_keyframe_selection_agreement(self, scenario_video):
        exact = VideoEncoder(PARAMETERS).encode(scenario_video)
        fast = VideoEncoder(PARAMETERS, "fast").encode(scenario_video)
        assert selection_agreement(exact.keyframe_indices,
                                   fast.keyframe_indices) >= (
            FAST_CONTRACT.detections.min_agreement)

    def test_frame_sizes_close(self, scenario_video):
        exact = VideoEncoder(PARAMETERS).encode(scenario_video)
        fast = VideoEncoder(PARAMETERS, "fast").encode(scenario_video)
        exact_sizes = np.array([frame.size_bytes for frame in exact.frames])
        fast_sizes = np.array([frame.size_bytes for frame in fast.frames])
        # Frame types may differ on a few near-tie frames; total volume must
        # stay within a fraction of a percent either way.
        assert fast_sizes.sum() == pytest.approx(exact_sizes.sum(), rel=0.005)

    def test_exact_encode_unchanged_by_precision_arg(self, scenario_video):
        default = VideoEncoder(PARAMETERS).encode(scenario_video)
        explicit = VideoEncoder(PARAMETERS, "exact").encode(scenario_video)
        assert ([frame.size_bytes for frame in default.frames]
                == [frame.size_bytes for frame in explicit.frames])
        assert ([frame.frame_type for frame in default.frames]
                == [frame.frame_type for frame in explicit.frames])


class TestSieveAgreement:
    def test_analyze_video_label_agreement(self, scenario_video):
        # precision pinned explicitly on both sides: under the CI leg that
        # sets REPRO_PRECISION=fast a bare SystemConfig() would default to
        # fast and this differential test would compare fast vs fast.
        exact_result = Sieve(SystemConfig(precision="exact")).analyze_video(
            scenario_video, "cam", parameters=PARAMETERS)
        fast_result = Sieve(SystemConfig(precision="fast")).analyze_video(
            scenario_video, "cam", parameters=PARAMETERS)
        assert selection_agreement(exact_result.keyframe_indices,
                                   fast_result.keyframe_indices) >= (
            FAST_CONTRACT.detections.min_agreement)
        assert agreement_fraction(exact_result.frame_labels,
                                  fast_result.frame_labels) >= (
            FAST_CONTRACT.detections.min_agreement)


class TestWorkloadAgreement:
    @pytest.fixture(scope="class")
    def night_instance(self):
        profile = make_scenario("night", duration_seconds=12, render_scale=0.08)
        spec = DatasetSpec(
            name="night", objects=("car", "person"),
            nominal_resolution=RESOLUTION_720P, fps=30.0,
            paper_duration_hours=4.0,
            description="flickering low-light intersection", has_labels=True)
        return DatasetInstance(spec=spec, profile=profile,
                               video=SyntheticScene(profile).video())

    def test_workload_sample_sets_agree(self, night_instance):
        exact = build_workload(night_instance,
                               config=SystemConfig(precision="exact"))
        fast = build_workload(night_instance,
                              config=SystemConfig(precision="fast"))
        assert exact.num_frames == fast.num_frames
        assert selection_agreement(exact.semantic_samples,
                                   fast.semantic_samples) >= (
            FAST_CONTRACT.detections.min_agreement)
        # The MSE/uniform baselines never touch the fast kernels, so their
        # sample sets must be equal outright.
        assert exact.mse_samples == fast.mse_samples
        assert fast.semantic_bytes == pytest.approx(exact.semantic_bytes,
                                                    rel=0.005)


class TestCacheSeparation:
    def test_fast_and_exact_sessions_never_share_artifacts(self, tmp_path):
        config = ExperimentConfig(duration_seconds=4.0, render_scale=0.05,
                                  datasets=("jackson_square",))
        clear_prepared_cache()
        try:
            with diskcache.temporary_cache_dir(tmp_path):
                for precision in ("exact", "fast"):
                    prepare_workload("jackson_square", config,
                                     system_config=SystemConfig(
                                         precision=precision))
                # One prepared dataset and one workload per precision.
                assert len(list_keys(DATASET_CACHE_KIND)) == 2
                assert len(list_keys(WORKLOAD_CACHE_KIND)) == 2
        finally:
            clear_prepared_cache()
