"""Encoder parameters and GOP (group-of-pictures) key-frame placement.

The semantic video encoder exposes exactly the two knobs the paper tunes:

* ``gop_size`` — the maximum number of frames between two I-frames (x264's
  ``--keyint``); if no scene cut occurred for ``gop_size`` frames an I-frame
  is forced,
* ``scenecut_threshold`` — the 0-400 sensitivity of the scene-cut decision
  (x264's ``--scenecut``), interpreted by
  :func:`repro.codec.scenecut.scenecut_score_threshold`.

Given the per-frame :class:`~repro.codec.scenecut.FrameActivity` series
produced by one analysis pass, :class:`KeyframePlacer` converts any
parameter configuration into the corresponding I/P frame-type sequence
without re-running motion estimation — the property that makes the offline
grid search of Section IV practical.

The placement rule is stated twice, on purpose and no more:
:meth:`ActivityColumns.keyframe_indices` is the closed form over a whole
analysis pass, which jumps from one I-frame straight to the next and
places every encode's frames; :class:`StreamingKeyframePlacer` is the
stateful, frame-at-a-time form, kept for the one caller the closed form
cannot serve — the drift soak's schedule replay
(``examples/drift_soak.py``), which swaps parameters mid-stream.  A
property test holds the two equal on random series and parameters.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..config import real_number, whole_number
from ..video.frame import FrameType
from .scenecut import (MAX_SCENECUT, FrameActivity, novelty_series,
                       scenecut_novelty_floor)

#: x264 defaults, quoted in the paper ("the default parameters (i.e., GOP
#: size = 250, and scenecut = 40)").
DEFAULT_GOP_SIZE = 250
DEFAULT_SCENECUT = 40.0

#: Largest values the bitstream's one-byte fields can carry.
MAX_BLOCK_SIZE = 255
MAX_SEARCH_RADIUS = 127


@dataclass(frozen=True)
class EncoderParameters:
    """Configuration of the semantic video encoder.

    Attributes:
        gop_size: Maximum distance between two I-frames (frames).
        scenecut_threshold: Scene-cut sensitivity in ``[0, 400]``.
        min_gop_size: Minimum distance between two I-frames; scene cuts
            closer than this to the previous I-frame are encoded as P-frames
            (x264's ``--min-keyint``).  ``0`` selects ``max(gop_size // 10, 1)``.
        quality: JPEG-style quality factor used by the transform/quantiser.
        block_size: Macroblock size.
        search_radius: Motion-search radius in pixels.
    """

    gop_size: int = DEFAULT_GOP_SIZE
    scenecut_threshold: float = DEFAULT_SCENECUT
    min_gop_size: int = 0
    quality: int = 75
    block_size: int = 8
    search_radius: int = 2

    def __post_init__(self) -> None:
        # Frame distances, the quality and the block geometry are whole
        # numbers: a fractional one would place fractional frame indices or
        # fail late, inside numpy or ``struct``.  A bool is no count at all.
        # The bitstream stores the block size in one unsigned byte (I- and
        # P-frame headers) and each motion-vector component in one signed
        # byte; anything larger would not survive a round trip.
        for name, least, most in (
                ("gop_size", 1, None), ("min_gop_size", 0, None),
                ("quality", 1, 100), ("block_size", 2, MAX_BLOCK_SIZE),
                ("search_radius", 0, MAX_SEARCH_RADIUS)):
            object.__setattr__(self, name, whole_number(
                getattr(self, name), name, least=least, most=most))
        # Kept exactly as given: ``describe()`` and every digest print it.
        real_number(self.scenecut_threshold, "scenecut_threshold", least=0,
                    most=MAX_SCENECUT)

    @property
    def effective_min_gop(self) -> int:
        """The minimum I-frame spacing actually applied.

        Follows the x264 ``--min-keyint auto`` convention of one tenth of the
        GOP size, capped at roughly one second of video (25 frames) so that a
        very large GOP does not lock out scene-cut I-frames for minutes.
        """
        if self.min_gop_size > 0:
            return min(self.min_gop_size, self.gop_size)
        return min(max(self.gop_size // 10, 1), 25)

    def with_(self, **changes) -> "EncoderParameters":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def describe(self) -> str:
        """Short human-readable description (used in experiment tables)."""
        return f"gop={self.gop_size}, sc={self.scenecut_threshold:g}"


#: The default (non-semantic) configuration used as the paper's baseline.
DEFAULT_PARAMETERS = EncoderParameters()


class StreamingKeyframePlacer:
    """Stateful frame-type decision, one frame at a time.

    Placement rules, applied in order for every frame:

    1. the first frame is always an I-frame;
    2. if ``gop_size`` frames have passed since the last I-frame, force an
       I-frame;
    3. if the scene-cut decision fires (now, or fired earlier but was held
       back by the minimum key-frame interval — the request is *latched*)
       and at least ``min_gop`` frames have passed since the last I-frame,
       emit an I-frame;
    4. otherwise emit a P-frame.

    The latching in rule 3 matters for event detection: when an object is
    crossing the scene the scene-cut signal fires continuously, so the last
    I-frame before the object disappears may be closer than ``min_gop`` to
    the disappearance itself; without latching that final scene cut would be
    dropped and the "object left" event would never receive an I-frame.

    This is the only stateful statement of the rule and the oracle the
    closed form, :meth:`ActivityColumns.keyframe_indices`, is
    property-tested against.  Encodes place from the closed form; the
    drift soak's schedule replay (``examples/drift_soak.py``) calls this
    form because it assigns :attr:`parameters` mid-stream, which the closed
    form cannot express.
    """

    def __init__(self, parameters: EncoderParameters) -> None:
        self.parameters = parameters
        self._since_keyframe = 0
        self._pending_scenecut = False
        self._frame_count = 0

    def _configure(self, parameters: EncoderParameters) -> None:
        # Assignable mid-stream: a live retune swaps the configuration and
        # keeps the GOP state.  Everything ``decide`` needs from it is
        # derived here, once per configuration instead of once per frame.
        self._gop = parameters.gop_size
        self._min_gop = parameters.effective_min_gop
        self._novelty_floor = scenecut_novelty_floor(
            parameters.scenecut_threshold)

    #: The configuration in force; write-only, the placer keeps only what
    #: it derives from it.
    parameters = property(fset=_configure)

    def decide(self, activity: FrameActivity) -> FrameType:
        """Return the frame type of the next frame of the stream."""
        is_first_frame = self._frame_count == 0 or activity.is_first
        self._frame_count += 1
        if is_first_frame:
            self._since_keyframe = 0
            self._pending_scenecut = False
            return FrameType.I
        self._since_keyframe += 1
        if activity.novel_block_fraction > self._novelty_floor:
            self._pending_scenecut = True
        if (self._since_keyframe >= self._gop
                or (self._pending_scenecut
                    and self._since_keyframe >= self._min_gop)):
            self._since_keyframe = 0
            self._pending_scenecut = False
            return FrameType.I
        return FrameType.P


class ActivityColumns:
    """The two columns of an analysis pass that key-frame placement reads.

    Extracting ``novel_block_fraction`` and ``is_first`` into arrays costs
    one pass over the :class:`FrameActivity` records; every placement after
    that is array work.  Consecutive passes that already carry their
    columns (the online controller's window of chunks) are joined with
    :meth:`concatenate` instead.  The positions at which the scene cut
    fires depend on the scenecut threshold alone, so they are computed once
    per distinct threshold and shared by every GOP size of a grid search;
    and :meth:`distinct_placements` places each distinct I-frame placement
    of a grid once.

    Args:
        activities: Per-frame analysis of one video, in frame order.
    """

    def __init__(self, activities: Sequence[FrameActivity]) -> None:
        self._adopt(novelty_series(activities),
                    [index for index, activity in enumerate(activities)
                     if activity.is_first])

    @classmethod
    def concatenate(cls, novelties: Sequence[np.ndarray],
                    firsts: Sequence[Sequence[int]]) -> "ActivityColumns":
        """The columns of consecutive analysis passes, joined end to end.

        Args:
            novelties: Each pass's ``novel_block_fraction`` column.
            firsts: Each pass's ``is_first`` positions, ascending and
                relative to the start of that pass.
        """
        positions: List[int] = []
        offset = 0
        for novelty, part in zip(novelties, firsts):
            positions.extend(offset + index for index in part)
            offset += len(novelty)
        columns = cls.__new__(cls)
        columns._adopt(np.concatenate(novelties), positions)
        return columns

    def _adopt(self, novelty: np.ndarray, firsts: List[int]) -> None:
        self.num_frames = len(novelty)
        self._novelty = novelty
        # Frames that are I-frames whatever the parameters: the head of the
        # series and every ``is_first`` record.  Like the cut positions they
        # end with a ``num_frames`` sentinel, so "next one after i" is always
        # a valid lookup.
        if firsts[:1] != [0]:
            firsts.insert(0, 0)
        firsts.append(self.num_frames)
        self._forced = firsts
        self._cuts: Dict[float, List[int]] = {}

    def _cut_positions(self, scenecut: float) -> List[int]:
        """Sorted frame indices at which the scene cut fires, then a sentinel."""
        cuts = self._cuts.get(scenecut)
        if cuts is None:
            fired = self._novelty > scenecut_novelty_floor(scenecut)
            cuts = np.flatnonzero(fired).tolist()
            cuts.append(self.num_frames)
            self._cuts[scenecut] = cuts
        return cuts

    def keyframe_indices(self, parameters: EncoderParameters) -> List[int]:
        """I-frame indices under ``parameters``, in closed form.

        With the last I-frame at ``last``, the rules of
        :class:`StreamingKeyframePlacer` put the next one at::

            min(last + gop_size,
                max(last + min_gop, first cut after last),
                next forced frame after last)

        (the latch is the ``max``: a cut inside the minimum interval fires
        as soon as the interval allows), so placement jumps from I-frame to
        I-frame with one bisection each instead of deciding every frame.
        """
        return self._place(parameters.gop_size, parameters.effective_min_gop,
                           self._cut_positions(parameters.scenecut_threshold))

    def distinct_placements(self, configurations: Sequence[EncoderParameters]
                            ) -> Tuple[List[Tuple[int, ...]], List[int]]:
        """Each distinct I-frame placement of ``configurations``, once.

        Two configurations place the same I-frames when they agree on
        ``(min(gop_size, num_frames), effective_min_gop, number of cuts)``:

        * a GOP cap of ``num_frames`` or more never binds, because the next
          forced frame (the sentinel at the latest) is never beyond
          ``num_frames <= last + gop_size``;
        * the cut positions of any two thresholds are nested (both are
          ``novelty > floor``), so equally many cuts are the same cuts.

        Returns:
            The distinct placements, in order of first appearance, and for
            each configuration the index of its placement among them.
        """
        num_frames = self.num_frames
        slot_of: Dict[Tuple[int, int, int], int] = {}
        placements: List[Tuple[int, ...]] = []
        slots: List[int] = []
        for parameters in configurations:
            gop = min(parameters.gop_size, num_frames)
            min_gop = parameters.effective_min_gop
            cuts = self._cut_positions(parameters.scenecut_threshold)
            key = (gop, min_gop, len(cuts))
            slot = slot_of.get(key)
            if slot is None:
                slot = slot_of[key] = len(placements)
                placements.append(tuple(self._place(gop, min_gop, cuts)))
            slots.append(slot)
        return placements, slots

    def _place(self, gop: int, min_gop: int, cuts: List[int]) -> List[int]:
        """The closed form of :meth:`keyframe_indices` on resolved values."""
        num_frames = self.num_frames
        forced = self._forced
        keyframes: List[int] = []
        index = 0
        while index < num_frames:
            keyframes.append(index)
            index = min(index + gop,
                        max(index + min_gop, cuts[bisect_right(cuts, index)]),
                        forced[bisect_right(forced, index)])
        return keyframes


class KeyframePlacer:
    """Convert frame-activity series + encoder parameters into frame types.

    Args:
        parameters: Encoder configuration.
    """

    def __init__(self, parameters: EncoderParameters) -> None:
        self.parameters = parameters

    def keyframe_indices(self, activities: Sequence[FrameActivity]) -> List[int]:
        """Indices of the frames that would be encoded as I-frames.

        See :class:`StreamingKeyframePlacer` for the placement rules and
        :meth:`ActivityColumns.keyframe_indices` for their closed form.
        Callers placing many configurations over one analysis pass build
        the :class:`ActivityColumns` once and call it directly.
        """
        return ActivityColumns(activities).keyframe_indices(self.parameters)

    def place(self, activities: Sequence[FrameActivity]) -> List[FrameType]:
        """Assign a :class:`FrameType` to every analysed frame."""
        frame_types = [FrameType.P] * len(activities)
        for index in self.keyframe_indices(activities):
            frame_types[index] = FrameType.I
        return frame_types
