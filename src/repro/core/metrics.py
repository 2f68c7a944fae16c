"""Evaluation metrics for event detection (Section IV and V-A of the paper).

The paper scores an encoder configuration (or a baseline change detector) by
three quantities:

* **accuracy** (``acc_i``) — per-frame object-label accuracy when every
  sampled frame is labelled by the reference NN and every other frame
  inherits the labels of the most recent sampled frame;
* **filtering rate** (``fr_i``) — the fraction of frames that are *not*
  sampled (the paper also reports its complement, the sample size *SS*);
* **F1 score** — the harmonic mean of accuracy and filtering rate, used by
  the offline tuner to pick the best configuration.

:func:`evaluate_sampling` reports two accuracy variants.
``DetectionScore.accuracy`` is the per-frame label accuracy under label
propagation, the one used in the evaluation (Figure 3, Table II).
``DetectionScore.event_accuracy`` is the formulation of Section IV (each
event contributes the fraction of its frames from the event start to its
first I-frame); the two coincide when every event contains at least one
sampled frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from ..config import NON_NEGATIVE, real_number
from ..errors import ConfigurationError
from ..video.events import EventTimeline


#: Most elements one scoring table (sample sets x events) may hold; a larger
#: batch of sets is scored a slice of sets at a time, like the analysis
#: pass's frame batches.
_SCORE_TABLE_ELEMENTS = 1 << 17


def _validate_sample_sets(sample_sets: Iterable[Iterable[int]], num_frames: int
                          ) -> Tuple[np.ndarray, List[int], List[int]]:
    """All sets' frame indices concatenated as ``int64``, with each set's
    size and its number of distinct frames.

    The checks run once, over the concatenation.  Order and duplicates
    within a set do not matter to the scorer.

    Raises:
        ConfigurationError: If an index is not a whole number (``1.5``,
            ``nan``, ``"x"``, ``None``) or lies outside ``[0, num_frames)``.
    """
    def malformed() -> ConfigurationError:
        return ConfigurationError(
            f"sample indices must be flat sequences of whole frame numbers, "
            f"got {sample_sets!r}")

    flat: list = []
    sizes: List[int] = []
    distinct: List[int] = []
    try:
        for samples in sample_sets:
            before = len(flat)
            flat.extend(samples)
            sizes.append(len(flat) - before)
            # Whole floats hash as their ints, so this counts frames.
            distinct.append(len(set(flat[before:])))
        indices = np.array(flat)
    except (TypeError, ValueError, OverflowError):  # not iterable / ragged
        raise malformed() from None
    if indices.size == 0:
        return np.empty(0, dtype=np.int64), sizes, distinct
    kind = indices.dtype.kind
    if indices.ndim != 1 or kind not in "biuf":
        raise malformed()
    # ``int(1.5)`` would silently score frame 1; nan/inf have no frame.
    if kind == "f" and not (np.isfinite(indices).all()
                            and (indices == np.floor(indices)).all()):
        raise malformed()
    indices = indices.astype(np.int64)
    low = int(np.minimum.reduce(indices))
    high = int(np.maximum.reduce(indices))
    if low < 0 or high >= num_frames:
        raise ConfigurationError(
            f"sample indices must lie in [0, {num_frames}), got {low}..{high}")
    return indices, sizes, distinct


def _frame_counts(timeline: EventTimeline, frames: np.ndarray,
                  sizes: Sequence[int]) -> Tuple[List[int], List[int]]:
    """Per sample set: correctly propagated frames and Section-IV wrong frames.

    ``frames`` holds the sets' samples one set after another, ``sizes[i]``
    of them for set ``i``.  Keyed ``set * num_frames + frame`` and sorted,
    every set's samples form one run of a single array, and one
    ``searchsorted`` fills a sets x events table of each set's first sample
    at or after every event start and of its latest sample before it.
    Within an event, the frames up to the first sample inside it carry the
    label of that latest sample (the background when there is none); every
    later frame carries the event's own label.  So per set:

    * Section-IV wrong frames = the sum of the events' start offsets (an
      event with no sample inside counts all its frames);
    * correctly propagated frames = all frames minus the offsets of the
      events whose carried-in label differs from their own.
    """
    arrays = timeline.arrays()
    num_frames = timeline.num_frames
    origins = np.arange(len(sizes), dtype=np.int64) * num_frames
    keys = np.repeat(origins, sizes) + frames
    keys.sort()
    origins = origins[:, None]
    starts = origins + arrays.starts
    # A -1 in front reads as "no earlier sample"; the sentinel behind as
    # "no later one".
    padded = np.concatenate(([-1], keys, [len(sizes) * num_frames]))
    position = np.searchsorted(keys, starts)
    first = padded[position + 1]
    offsets = np.where(first < origins + arrays.ends, first - starts,
                       arrays.ends - arrays.starts)
    # A latest sample in an earlier set clamps to -1, which reads the
    # appended 0: the background.
    carried = np.concatenate((arrays.frame_ids, [0]))[
        np.maximum(padded[position] - origins, -1)]
    mismatched = carried != arrays.frame_ids[arrays.starts]
    wrong = np.add.reduce(offsets, axis=1)
    correct = num_frames - np.add.reduce(offsets * mismatched, axis=1)
    return correct.tolist(), wrong.tolist()


def f1_score(accuracy: float, filtering: float) -> float:
    """Harmonic mean of accuracy and filtering rate (Section IV)."""
    # Called per score, so the helpers run only off the plain-float path.
    if not (type(accuracy) is type(filtering) is float
            and 0 <= accuracy < math.inf and 0 <= filtering < math.inf):
        real_number(accuracy, "accuracy", **NON_NEGATIVE)
        real_number(filtering, "filtering rate", **NON_NEGATIVE)
    if accuracy + filtering == 0:
        return 0.0
    return 2.0 * accuracy * filtering / (accuracy + filtering)


@dataclass(frozen=True)
class DetectionScore:
    """Full score of one event-detection configuration.

    Attributes:
        accuracy: Per-frame label accuracy (propagation variant).
        event_accuracy: Section-IV accuracy variant.
        sampling_fraction: Fraction of frames sampled (*SS*).
        filtering_rate: Fraction of frames filtered (``fr``).
        f1: Harmonic mean of accuracy and filtering rate.
        num_samples: Number of sampled frames.
        num_frames: Total number of frames.
    """

    accuracy: float
    event_accuracy: float
    sampling_fraction: float
    filtering_rate: float
    f1: float
    num_samples: int
    num_frames: int



def evaluate_sample_sets(timeline: EventTimeline,
                         sample_sets: Iterable[Iterable[int]]
                         ) -> List[DetectionScore]:
    """Score many sets of sampled frame indices against one ground truth.

    All sets are validated at once and scored in one array program: a
    sets x events table of each set's first sample in every event, and of
    the label it carries into the event, counts the correctly propagated
    frames and the event-start offsets per set.  The floats are the same
    integer-count divisions, and the same :func:`f1_score`, as scoring the
    sets one by one, so every score is *equal* to that.

    Args:
        timeline: Ground-truth event timeline.
        sample_sets: Sets of sampled frame indices, in any order and with
            duplicates allowed (for SiEVE, one I-frame placement per
            encoder configuration; for the baselines, one threshold each).

    Returns:
        One :class:`DetectionScore` per set, in input order.

    Raises:
        ConfigurationError: If any index is not a whole frame number or
            lies outside the timeline.
    """
    num_frames = timeline.num_frames
    frames, sizes, distinct = _validate_sample_sets(sample_sets, num_frames)
    bounds = [0, *accumulate(sizes)]
    per_pass = max(_SCORE_TABLE_ELEMENTS // timeline.num_events, 1)
    correct: List[int] = []
    wrong: List[int] = []
    for lo in range(0, len(sizes), per_pass):
        hi = min(lo + per_pass, len(sizes))
        counts = _frame_counts(timeline, frames[bounds[lo]:bounds[hi]],
                               sizes[lo:hi])
        correct += counts[0]
        wrong += counts[1]
    scores = []
    for right, missed, samples in zip(correct, wrong, distinct):
        accuracy = right / num_frames
        fraction = samples / num_frames
        filtering = 1.0 - fraction
        scores.append(DetectionScore(
            accuracy=accuracy, event_accuracy=1.0 - missed / num_frames,
            sampling_fraction=fraction, filtering_rate=filtering,
            f1=f1_score(accuracy, filtering), num_samples=samples,
            num_frames=num_frames))
    return scores


def evaluate_sampling(timeline: EventTimeline,
                      sample_indices: Sequence[int]) -> DetectionScore:
    """Score a set of sampled frame indices against the ground truth.

    The one-set form of :func:`evaluate_sample_sets`.

    Args:
        timeline: Ground-truth event timeline.
        sample_indices: Indices of frames that undergo NN inference (for
            SiEVE these are the I-frames; for the baselines, the frames whose
            change signal crossed the threshold).

    Returns:
        The full :class:`DetectionScore`.
    """
    return evaluate_sample_sets(timeline, (sample_indices,))[0]
