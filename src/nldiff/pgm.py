"""Grayscale image IO (PGM) and the image-to-field mapping.

Reads both the ASCII (P2) and binary (P5) variants with any maxval up to
65535, scaling samples to [0, 1].  Writing always produces 8-bit binary
P5 with a canonical three-line header; values are clamped to [0, 1] and
quantized by round-half-up, so loading an 8-bit P5 file written here and
saving it again reproduces the bytes exactly.

An image maps onto a cell-centered grid with the unit interval along the
width and height/width along the second axis, one node per pixel, pixel
pitch 1 / width.  Rows keep their top-to-bottom order; the second grid
axis simply indexes them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PgmFormatError
from .grid import Field, Grid, build_grid


@dataclass(frozen=True)
class ImageField:
    """A grayscale image with values in [0, 1], shaped (height, width)."""

    width: int
    height: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.height, self.width):
            raise PgmFormatError(
                f"image data shaped {v.shape}, expected {(self.height, self.width)}"
            )
        if not np.all(np.isfinite(v)) or v.min() < 0.0 or v.max() > 1.0:
            raise PgmFormatError("image values must be finite and inside [0, 1]")
        object.__setattr__(self, "values", v)


def _tokens(data: bytes):
    """Yield (token, next_position) over whitespace-separated header fields,
    skipping comments that run from '#' to end of line."""
    i = 0
    n = len(data)
    while i < n:
        c = data[i : i + 1]
        if c in b" \t\r\n":
            i += 1
        elif c == b"#":
            while i < n and data[i : i + 1] not in b"\r\n":
                i += 1
        else:
            j = i
            while j < n and data[j : j + 1] not in b" \t\r\n#":
                j += 1
            yield data[i:j], j
            i = j


def load_pgm(path) -> ImageField:
    """Read a P2 or P5 grayscale image and scale it to [0, 1].  An image
    one pixel wide or high is refused: it maps to no grid."""
    with open(path, "rb") as fh:
        data = fh.read()
    fields = []
    pos = 0
    for tok, nxt in _tokens(data):
        fields.append(tok)
        pos = nxt
        if len(fields) == 4:
            break
    if len(fields) < 4:
        raise PgmFormatError(f"{path}: truncated header")
    magic = fields[0]
    if magic not in (b"P2", b"P5"):
        raise PgmFormatError(f"{path}: unsupported magic {magic!r}, need P2 or P5")
    try:
        width, height, maxval = (int(fields[k]) for k in (1, 2, 3))
    except ValueError as exc:
        raise PgmFormatError(f"{path}: non-numeric header field") from exc
    if width < 1 or height < 1:
        raise PgmFormatError(f"{path}: bad dimensions {width} x {height}")
    if not 0 < maxval <= 65535:
        raise PgmFormatError(f"{path}: maxval {maxval} outside (0, 65535]")

    count = width * height
    if magic == b"P2":
        rest = data[pos:]
        try:
            samples = np.array(rest.split(), dtype=np.int64)
        except (ValueError, OverflowError) as exc:
            raise PgmFormatError(f"{path}: non-numeric or oversized sample in P2 data") from exc
        if samples.size != count:
            raise PgmFormatError(
                f"{path}: expected {count} samples, found {samples.size}"
            )
    else:
        raster = data[pos + 1 :]  # exactly one whitespace byte after maxval
        per = 2 if maxval > 255 else 1
        if len(raster) < count * per:
            raise PgmFormatError(f"{path}: raster shorter than {count} samples")
        raw = np.frombuffer(raster[: count * per], dtype=np.uint8)
        if per == 2:
            samples = raw.reshape(-1, 2).astype(np.int64)
            samples = (samples[:, 0] << 8) | samples[:, 1]
        else:
            samples = raw.astype(np.int64)
    if samples.min() < 0 or samples.max() > maxval:
        raise PgmFormatError(f"{path}: sample outside [0, {maxval}]")
    for axis, n in (("width", width), ("height", height)):
        if n < 2:
            raise PgmFormatError(f"{path}: image {axis} is {n} pixel; each pixel is a grid node, "
                                 "and a grid needs at least 2 along each axis")
    values = samples.reshape(height, width).astype(np.float64) / maxval
    return ImageField(width=width, height=height, values=values)


def save_pgm(image: ImageField, path) -> None:
    """Write an image as canonical 8-bit binary P5."""
    v = np.clip(image.values, 0.0, 1.0)
    q = np.floor(v * 255.0 + 0.5).astype(np.uint8)
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header + q.tobytes())


def image_grid(image: ImageField) -> Grid:
    """The cell-centered grid an image lives on."""
    aspect = image.height / image.width
    return build_grid(2, [(0.0, 1.0), (0.0, aspect)], [image.width, image.height])


def image_to_field(image: ImageField) -> tuple:
    """Map an image to (grid, field); axis 0 is the width direction."""
    grid = image_grid(image)
    return grid, Field(grid, image.values.T.ravel().copy())


def field_to_image(f: Field) -> ImageField:
    """Map a field on an image grid back to an image, its values clipped
    into [0, 1]; callers that care about the overshoot should inspect the
    field first.
    """
    if f.grid.dim != 2:
        raise PgmFormatError("only 2-d fields map back to images")
    width, height = f.grid.counts
    v = np.clip(f.values.reshape(width, height).T, 0.0, 1.0)
    return ImageField(width=width, height=height, values=v)
