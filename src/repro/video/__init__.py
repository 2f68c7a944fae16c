"""Video primitives: frames, event timelines, containers and synthetic scenes."""

from .events import Event, EventTimeline, LabelSet, NO_LABEL, as_label_set
from .frame import (Frame, FrameType, Resolution, RESOLUTION_1080P,
                    RESOLUTION_400P, RESOLUTION_720P)
from .raw_video import GeneratedVideo, RawVideo, VideoMetadata, VideoSource
from .scenarios import (SCENARIOS, amsterdam, coral_reef,
                        jackson_square, make_scenario, taipei, venice)
from .synthetic import (ObjectClassSpec, ObjectTrack, SceneProfile, SceneScript,
                        SyntheticScene, generate_script)
# Importing transforms also registers the built-in composed scenarios
# (BUILTIN_COMPOSED_SPECS) into SCENARIOS.
from .transforms import (BUILTIN_COMPOSED_SPECS, TRANSFORMS, ScenarioTransform,
                         apply_transforms, compose, compose_spec, parse_spec,
                         register_composed)

__all__ = [
    "Event", "EventTimeline", "LabelSet", "NO_LABEL", "as_label_set",
    "Frame", "FrameType", "Resolution",
    "RESOLUTION_400P", "RESOLUTION_720P", "RESOLUTION_1080P",
    "GeneratedVideo", "RawVideo", "VideoMetadata", "VideoSource",
    "ObjectClassSpec", "ObjectTrack", "SceneProfile", "SceneScript",
    "SyntheticScene", "generate_script",
    "SCENARIOS", "make_scenario",
    "jackson_square", "coral_reef", "venice", "taipei", "amsterdam",
    "ScenarioTransform", "TRANSFORMS",
    "BUILTIN_COMPOSED_SPECS", "apply_transforms", "compose", "compose_spec",
    "parse_spec", "register_composed",
]
