"""Multimodal-column plumbing: opaque binary payloads (the webpages
``html`` column stands in for image/audio bytes) flowing through
actor-pool map_batches stages.

Real decode libraries (PIL / ffmpeg / torchaudio) are not in this
container, so the decode kernel HERE is STUBBED — but see
ops/image.py for a fully REAL decode leg (BMP needs only numpy) with
exact verified statistics; this module keeps the stub pattern for
formats that genuinely need codec libs. ``DecodeStub`` produces a
deterministic fake feature vector (byte-value histogram) and fake
dimensions derived from the payload length, while everything Ray-side
(binary-column schema, batch sizing for fat rows, actor signature,
output layout) is real and tested. Swap ``DecodeStub.decode_one`` for
a real decoder on a cluster with the libs installed.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

FAKE_W_MOD = 640
FAKE_H_MOD = 480


def media_meta(webpages_path: str) -> ray.data.Dataset:
    """url, n_bytes, fake_width, fake_height — metadata extraction
    over the binary column (vectorized; SQL twin uses octet_length).
    Small batch_size: binary rows are fat (ray_guide 'Memory-aware')."""
    def fn(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        n = pc.binary_length(batch["html"]).cast(pa.int64())
        nn = n.to_numpy()
        return pa.table({
            "url": batch["url"],
            "n_bytes": n,
            "fake_width": pa.array(nn % FAKE_W_MOD, pa.int64()),
            "fake_height": pa.array(nn % FAKE_H_MOD, pa.int64()),
        })

    ds = ray.data.read_parquet(webpages_path, columns=["url", "html"])
    return ds.map_batches(fn, batch_format="pyarrow", batch_size=1024)


class DecodeStub:
    """STUB image/audio decode: per-payload byte histogram (8 bins,
    float32) as the 'feature vector'. Deterministic; replace
    ``decode_one`` with a real decoder when the codec libs exist."""

    N_BINS = 8

    def __init__(self) -> None:
        # model-load stand-in: done once per actor, not per batch
        self.edges = np.linspace(0, 256, self.N_BINS + 1)

    def decode_one(self, payload: bytes) -> np.ndarray:
        arr = np.frombuffer(payload, dtype=np.uint8)
        hist, _ = np.histogram(arr, bins=self.edges)
        total = max(1, arr.size)
        return (hist / total).astype(np.float32)

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats = [self.decode_one(m.as_py()) for m in batch["html"]]
        return pa.table({
            "url": batch["url"],
            "features": pa.array([f.tolist() for f in feats],
                                 pa.list_(pa.float32(), self.N_BINS)),
        })


def media_features(webpages_path: str, *, concurrency=(1, 4)) -> ray.data.Dataset:
    """Binary payloads -> fixed-size feature vectors via the decode
    actor pool (the real multimodal pattern: small batches, fixed
    list<float> output schema)."""
    ds = ray.data.read_parquet(webpages_path, columns=["url", "html"])
    return ds.map_batches(DecodeStub, batch_format="pyarrow",
                          batch_size=512, concurrency=concurrency)


class FrameSampleStub:
    """STUB video frame-sampler: treats the binary payload as a fake
    'video' of fixed-size frames and flat-maps each input row into
    min(n_frames, max_frames) frame rows with per-frame features —
    uniform temporal sampling, the standard video-pretraining pass.
    The sampling arithmetic, row expansion, fixed output schema and
    actor lifecycle are real; only the pixel decode is fake (byte
    histogram per frame chunk). Swap ``frame_features`` for a real
    ffmpeg-backed sampler on a cluster with the libs installed."""

    FRAME_BYTES = 256  # fake frame stride
    N_BINS = 8

    def __init__(self, max_frames: int = 4) -> None:
        self.max_frames = max_frames
        self.edges = np.linspace(0, 256, self.N_BINS + 1)

    def frame_features(self, payload: bytes, idx: np.ndarray) -> np.ndarray:
        arr = np.frombuffer(payload, dtype=np.uint8)
        out = np.empty((idx.size, self.N_BINS), np.float32)
        for j, f in enumerate(idx):
            chunk = arr[f * self.FRAME_BYTES:(f + 1) * self.FRAME_BYTES]
            hist, _ = np.histogram(chunk, bins=self.edges)
            out[j] = hist / max(1, chunk.size)
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls, frame_idx, n_frames, feats = [], [], [], []
        for i in range(batch.num_rows):
            payload = batch["html"][i].as_py()
            total = max(1, len(payload) // self.FRAME_BYTES)
            # uniform temporal sample: evenly spaced, first frame pinned
            k = min(total, self.max_frames)
            idx = np.unique((np.arange(k) * total) // k)
            f = self.frame_features(payload, idx)
            urls.extend([batch["url"][i].as_py()] * idx.size)
            frame_idx.extend(idx.tolist())
            n_frames.extend([total] * idx.size)
            feats.append(f)
        flat = (np.concatenate(feats) if feats
                else np.empty((0, self.N_BINS), np.float32))
        return pa.table({
            "url": pa.array(urls, pa.string()),
            "frame_idx": pa.array(frame_idx, pa.int64()),
            "n_frames": pa.array(n_frames, pa.int64()),
            "features": pa.array(flat.tolist(),
                                 pa.list_(pa.float32(), self.N_BINS)),
        })


def media_frames(webpages_path: str, *, max_frames: int = 4,
                 concurrency=(1, 4)) -> ray.data.Dataset:
    """Row-expanding frame-sample stage: each binary payload ->
    min(n_frames, max_frames) frame rows. Small batches (fat binary
    rows x expansion factor must fit the worker heap); actor pool so
    a real decoder's model load happens once per actor."""
    ds = ray.data.read_parquet(webpages_path, columns=["url", "html"])
    return ds.map_batches(FrameSampleStub, batch_format="pyarrow",
                          batch_size=256, concurrency=concurrency,
                          fn_constructor_kwargs={"max_frames": max_frames})


class ResizeStub:
    """STUB image resize: reinterprets the binary payload as a fake
    (h, w) uint8 'image' (dimensions derived from the payload length,
    media_meta's convention) and area-downsamples it to fit a
    (target x target) box preserving aspect ratio — integer
    block-mean pooling, fully vectorized per image. Output is the
    resized payload as binary plus the old/new dims, i.e. a
    REAL resize pipeline's schema and memory profile (output rows
    shrink to <= target^2 bytes). Swap ``resize_one`` for a
    PIL/opencv kernel on a cluster with the libs installed."""

    def __init__(self, target: int = 64) -> None:
        self.target = target  # per-actor setup stand-in

    def resize_one(self, payload: bytes) -> tuple:
        n = len(payload)
        w = max(1, n % FAKE_W_MOD)
        h = max(1, min(n // max(w, 1), FAKE_H_MOD))
        img = np.frombuffer(payload, np.uint8)[:h * w]
        if img.size < h * w:  # pad the fake image to shape
            img = np.concatenate(
                [img, np.zeros(h * w - img.size, np.uint8)])
        img = img.reshape(h, w)
        # integer pooling factors that land both dims <= target
        fy = -(-h // self.target)
        fx = -(-w // self.target)
        ny, nx = -(-h // fy), -(-w // fx)
        py, px = ny * fy - h, nx * fx - w
        if py or px:
            img = np.pad(img, ((0, py), (0, px)), mode="edge")
        out = img.reshape(ny, fy, nx, fx).mean(axis=(1, 3))
        return w, h, nx, ny, out.astype(np.uint8).tobytes()

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = [self.resize_one(m.as_py()) for m in batch["html"]]
        return pa.table({
            "url": batch["url"],
            "width": pa.array([r[0] for r in rows], pa.int64()),
            "height": pa.array([r[1] for r in rows], pa.int64()),
            "new_width": pa.array([r[2] for r in rows], pa.int64()),
            "new_height": pa.array([r[3] for r in rows], pa.int64()),
            "pixels": pa.array([r[4] for r in rows], pa.binary()),
        })


def media_resize(webpages_path: str, *, target: int = 64,
                 concurrency=(2, 8)) -> ray.data.Dataset:
    """Actor-pool image-resize stage over the binary column: the
    third leg of the multimodal plumbing (decode -> features,
    frame-sample, resize). Small batches (fat rows in AND out);
    deterministic fake kernel, real schema/batching/actor lifecycle."""
    ds = ray.data.read_parquet(webpages_path, columns=["url", "html"])
    return ds.map_batches(ResizeStub, batch_format="pyarrow",
                          batch_size=256, concurrency=concurrency,
                          fn_constructor_kwargs={"target": target})
