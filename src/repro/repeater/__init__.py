"""Repeater planning under the maximum-interval constraint."""

from repro.repeater.insertion import (
    BufferedConnection,
    Segment,
    buffer_routed_nets,
    insert_repeaters,
)
from repro.repeater.vanginneken import (
    BufferType,
    TreeBuffering,
    buffer_all_trees,
    buffer_tree,
    default_library,
)

__all__ = [
    "Segment",
    "BufferedConnection",
    "insert_repeaters",
    "buffer_routed_nets",
    "TreeBuffering",
    "BufferType",
    "default_library",
    "buffer_tree",
    "buffer_all_trees",
]
