"""Differential exact-vs-fast harness for the motion search.

The fast search computes float32 SADs with a dot-product reduction and
falls back to exact float64 argmin on near-ties.  The contract under test
(:data:`repro.contracts.FAST_CONTRACT`):

* SAD surfaces stay inside the ``sad_values`` elementwise budget,
* motion vectors agree with the exact search at ``sad_argmin`` rate, and
  *exactly* on adversarial tie cases (the fallback resolves them with the
  exact first-candidate-wins rule),
* the default (exact) search remains bit-identical to the seed algorithm.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from video_tools import shift_plane
from repro.codec.blocks import pad_plane, to_blocks
from repro.codec.motion import candidate_offsets, estimate_motion
from repro.contracts import FAST_CONTRACT
from repro.contracts.contract import agreement_fraction
from repro.errors import ConfigurationError
from repro.video import SyntheticScene, make_scenario

BLOCK_SIZE = 8


def reference_motion_search(reference, current, block_size, search_radius,
                            search_step=1):
    """The seed's per-candidate motion search (the bit-identity anchor)."""
    reference = pad_plane(np.asarray(reference, dtype=np.float64), block_size)
    current = pad_plane(np.asarray(current, dtype=np.float64), block_size)
    current_blocks = to_blocks(current, block_size)
    blocks_y, blocks_x = current_blocks.shape[:2]
    best_sad = np.full((blocks_y, blocks_x), np.inf)
    best_vector = np.zeros((blocks_y, blocks_x, 2), dtype=np.int16)
    zero_sad = None
    for dy, dx in candidate_offsets(search_radius, search_step):
        predicted = shift_plane(reference, dy, dx)
        sad = np.abs(to_blocks(predicted, block_size)
                     - current_blocks).sum(axis=(2, 3))
        if (dy, dx) == (0, 0):
            zero_sad = sad
        better = sad < best_sad
        best_sad = np.where(better, sad, best_sad)
        best_vector[better] = (dy, dx)
    return best_vector, best_sad, zero_sad


def plane_pair(rng, height, width, noise=2.0, shift=(0, 0)):
    """A reference plane and a shifted+noisy current plane."""
    reference = rng.uniform(0.0, 255.0, size=(height, width))
    current = shift_plane(reference, *shift)
    current = current + rng.normal(0.0, noise, size=current.shape)
    return reference, np.clip(current, 0.0, 255.0)


class TestSadBudget:
    @settings(max_examples=15, deadline=None)
    @given(height=st.integers(16, 48), width=st.integers(16, 48),
           dy=st.integers(-2, 2), dx=st.integers(-2, 2),
           seed=st.integers(0, 2**31 - 1))
    def test_fast_sads_within_budget(self, height, width, dy, dx, seed):
        rng = np.random.default_rng(seed)
        reference, current = plane_pair(rng, height, width, shift=(dy, dx))
        exact = estimate_motion(reference, current, BLOCK_SIZE, 3)
        fast = estimate_motion(reference, current, BLOCK_SIZE, 3,
                               precision="fast")
        budget = FAST_CONTRACT.sad_values
        assert budget.values_within(exact.block_sad, fast.block_sad), (
            f"violation={budget.max_violation(exact.block_sad, fast.block_sad)}")
        assert budget.values_within(exact.zero_sad, fast.zero_sad)

    @settings(max_examples=15, deadline=None)
    @given(height=st.integers(16, 48), width=st.integers(16, 48),
           dy=st.integers(-2, 2), dx=st.integers(-2, 2),
           seed=st.integers(0, 2**31 - 1))
    def test_fast_vectors_meet_agreement_budget(self, height, width, dy, dx,
                                                seed):
        rng = np.random.default_rng(seed)
        reference, current = plane_pair(rng, height, width, shift=(dy, dx))
        exact = estimate_motion(reference, current, BLOCK_SIZE, 3)
        fast = estimate_motion(reference, current, BLOCK_SIZE, 3,
                               precision="fast")
        assert agreement_fraction(exact.vectors, fast.vectors) >= (
            FAST_CONTRACT.sad_argmin.min_agreement)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), step=st.integers(1, 2))
    def test_search_step_and_radius_variants(self, seed, step):
        rng = np.random.default_rng(seed)
        reference, current = plane_pair(rng, 32, 40, shift=(1, -1))
        for radius in (0, 1, 3):
            exact = estimate_motion(reference, current, BLOCK_SIZE, radius, step)
            fast = estimate_motion(reference, current, BLOCK_SIZE, radius, step,
                                   precision="fast")
            assert agreement_fraction(exact.vectors, fast.vectors) >= (
                FAST_CONTRACT.sad_argmin.min_agreement)
            assert FAST_CONTRACT.sad_values.values_within(exact.block_sad,
                                                          fast.block_sad)


class TestAdversarialTies:
    def test_constant_plane_all_candidates_tie(self):
        """Every candidate scores 0 on a flat plane: the tie fallback must
        reproduce the exact first-candidate-wins rule (origin)."""
        flat = np.full((40, 48), 127.0)
        exact = estimate_motion(flat, flat, BLOCK_SIZE, 3)
        fast = estimate_motion(flat, flat, BLOCK_SIZE, 3, precision="fast")
        assert np.array_equal(exact.vectors, fast.vectors)
        assert not fast.vectors.any()
        assert np.array_equal(exact.block_sad, fast.block_sad)

    def test_periodic_pattern_ties_between_shifts(self):
        """A pattern with period == 2 makes shifts of +-2 exact ties."""
        xx = np.arange(48)
        pattern = np.tile((xx % 2) * 100.0, (40, 1))
        exact = estimate_motion(pattern, pattern, BLOCK_SIZE, 2)
        fast = estimate_motion(pattern, pattern, BLOCK_SIZE, 2,
                               precision="fast")
        assert np.array_equal(exact.vectors, fast.vectors)
        assert np.array_equal(exact.block_sad, fast.block_sad)

    def test_two_non_origin_candidates_near_tie_everywhere(self):
        """The midpoint of two shifts makes both shift candidates score
        SADs equal to within float64 rounding on every block.  Where the
        winner is decided by a ~1e-13 gap the two paths may legitimately
        disagree (different float64 summation orders) — that is exactly
        what the ``sad_argmin`` budget exists for — but any disagreement
        must sit on such a vanishing gap, and the SAD surface itself must
        stay inside the value budget."""
        rng = np.random.default_rng(7)
        reference = rng.uniform(0.0, 255.0, size=(40, 48))
        current = 0.5 * (shift_plane(reference, 0, 1)
                         + shift_plane(reference, 0, -1))
        exact = estimate_motion(reference, current, BLOCK_SIZE, 2)
        fast = estimate_motion(reference, current, BLOCK_SIZE, 2,
                               precision="fast")
        assert FAST_CONTRACT.sad_values.values_within(exact.block_sad,
                                                      fast.block_sad)
        disagree = ~np.all(exact.vectors == fast.vectors, axis=2)
        gaps = np.abs(exact.block_sad[disagree] - fast.block_sad[disagree])
        assert np.all(gaps <= 1e-9), "fast picked a clearly worse candidate"

    def test_sub_margin_gradient_resolves_exactly(self):
        """SAD gaps far below the tie margin trigger the exact fallback on
        every block, so fast vectors equal exact vectors outright."""
        reference = np.tile(np.arange(48) * 1e-5, (40, 1))
        exact = estimate_motion(reference, reference, BLOCK_SIZE, 2)
        fast = estimate_motion(reference, reference, BLOCK_SIZE, 2,
                               precision="fast")
        assert np.array_equal(exact.vectors, fast.vectors)
        assert not fast.vectors.any()

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_uint8_footage_is_sad_exact(self, seed):
        """Integer-valued planes sum exactly in float32 (< 2**24), so the
        fast SAD surface is equal, not merely close."""
        rng = np.random.default_rng(seed)
        reference = rng.integers(0, 256, size=(32, 32)).astype(np.float64)
        current = rng.integers(0, 256, size=(32, 32)).astype(np.float64)
        exact = estimate_motion(reference, current, BLOCK_SIZE, 2)
        fast = estimate_motion(reference, current, BLOCK_SIZE, 2,
                               precision="fast")
        assert np.array_equal(exact.block_sad, fast.block_sad)
        assert np.array_equal(exact.vectors, fast.vectors)


class TestExactStaysExact:
    """The default search must remain bit-identical to the seed algorithm."""

    @settings(max_examples=10, deadline=None)
    @given(height=st.integers(16, 40), width=st.integers(16, 40),
           seed=st.integers(0, 2**31 - 1))
    def test_exact_matches_seed_reference(self, height, width, seed):
        rng = np.random.default_rng(seed)
        reference, current = plane_pair(rng, height, width, shift=(1, 1))
        field = estimate_motion(reference, current, BLOCK_SIZE, 2)
        ref_vectors, ref_sad, ref_zero = reference_motion_search(
            reference, current, BLOCK_SIZE, 2)
        assert np.array_equal(field.vectors, ref_vectors)
        assert np.array_equal(field.block_sad, ref_sad)
        assert np.array_equal(field.zero_sad, ref_zero)

    def test_scenario_frames_exact_identity(self):
        for name in ("jackson_square", "night"):
            profile = make_scenario(name, duration_seconds=1.0,
                                    render_scale=0.08)
            video = SyntheticScene(profile).video()
            frames = [frame.to_grayscale().astype(np.float64)
                      for frame in video.frames()][:2]
            field = estimate_motion(frames[0], frames[1], BLOCK_SIZE, 3)
            ref_vectors, ref_sad, _ = reference_motion_search(
                frames[0], frames[1], BLOCK_SIZE, 3)
            assert np.array_equal(field.vectors, ref_vectors)
            assert np.array_equal(field.block_sad, ref_sad)

    def test_unknown_precision_rejected(self):
        flat = np.zeros((16, 16))
        with pytest.raises(ConfigurationError):
            estimate_motion(flat, flat, BLOCK_SIZE, 1, precision="fp16")
