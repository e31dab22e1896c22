"""The TEA thread: timely, efficient, and accurate branch precomputation."""

from .block_cache import BlockCache
from .config import TeaConfig
from .controller import TeaController
from .fill_buffer import (
    FillBuffer,
    FillEntry,
    WalkResult,
    backward_dataflow_walk,
)
from .h2p_table import H2PTable
from .store_cache import HALF_LINE_BYTES, TeaStoreCache

__all__ = [
    "BlockCache",
    "TeaConfig",
    "TeaController",
    "FillBuffer",
    "FillEntry",
    "WalkResult",
    "backward_dataflow_walk",
    "H2PTable",
    "HALF_LINE_BYTES",
    "TeaStoreCache",
]
