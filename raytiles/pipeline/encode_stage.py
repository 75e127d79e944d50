"""MVT encoder stage: packed tile rows -> encoded tiles.

A callable for ``map_batches(FastPointEncoder(), batch_format="pyarrow")``:
every tile in the batch is encoded in ONE numpy pass (codec.fastpoint).
Each tile is an independent MVT message by construction — no cross-tile
state exists in the codec, mirroring the reference's per-tile purity
(SURVEY §3.2).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..codec.fastpoint import encode_point_tiles


class FastPointEncoder:
    """Packed tile rows {z,x,y, urls:list<str>, mention_idx:list<i32>,
    local_x:list<i32>, local_y:list<i32>} -> {z,x,y,mvt:binary,
    n_features:int64,n_layers:int32}, byte-identical to the general
    codec's encode_tile of the same one-layer point tile."""

    def __init__(self, extent: int = 4096, layer_version: int = 2) -> None:
        self.extent = extent
        self.version = layer_version

    def __call__(self, batch: pa.Table) -> pa.Table:
        # NOTE: no lazy raytiles imports here — this body runs on ray
        # workers where only the pickled-by-value module graph exists
        n = batch.num_rows
        if n == 0:
            return pa.table({"z": pa.array([], pa.int32()), "x": pa.array([], pa.int32()),
                             "y": pa.array([], pa.int32()), "mvt": pa.array([], pa.binary()),
                             "n_features": pa.array([], pa.int64()),
                             "n_layers": pa.array([], pa.int32())})
        lengths = pc.list_value_length(batch["urls"]).to_numpy().astype(np.int64)
        tile_offsets = np.concatenate([[0], np.cumsum(lengths)])
        urls = pc.list_flatten(batch["urls"])  # stays Arrow: zero Python strings
        midx = pc.list_flatten(batch["mention_idx"]).to_numpy()
        lx = pc.list_flatten(batch["local_x"]).to_numpy()
        ly = pc.list_flatten(batch["local_y"]).to_numpy()
        mvts = encode_point_tiles(tile_offsets, urls, midx, lx, ly,
                                  extent=self.extent, version=self.version)
        return pa.table({
            "z": batch["z"], "x": batch["x"], "y": batch["y"],
            "mvt": mvts,
            "n_features": pa.array(lengths, pa.int64()),
            "n_layers": pa.array(np.ones(n, dtype=np.int32), pa.int32()),
        })
