"""Uniform periodic grids and the sampled fields that live on them.

All state in the package is a sampled field on a periodic box. Along an axis
with ``n`` points and length ``L`` the sample ``j`` sits at ``x_j = j*L/n``:
coordinate 0 is a sample point and ``x = L`` wraps around to 0. Point counts
must be even and at least 4 so spectral differentiation has an unambiguous
Nyquist convention.

The three field classes share one frozen-dataclass base that holds their
invariants: finite float64/complex128 samples shaped to the grid (treat the
arrays as immutable), and arithmetic that keeps the class. ``check_same_grid``
is the package's one same-grid test; no other module raises GridMismatchError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .errors import GridMismatchError, NonFiniteSampleError

__all__ = [
    "Grid",
    "ScalarSampleField",
    "ComplexSampleField",
    "VectorSampleField3",
    "check_same_grid",
    "integrate",
    "inner",
    "l2_norm",
    "max_norm",
]


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid in 1, 2, or 3 dimensions (natural units)."""

    points: tuple[int, ...]
    lengths: tuple[float, ...]

    def __post_init__(self):
        points = tuple(int(p) for p in np.atleast_1d(self.points))
        lengths = tuple(float(l) for l in np.atleast_1d(self.lengths))
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "lengths", lengths)
        if not 1 <= len(points) <= 3:
            raise ValueError(f"grid must have 1-3 axes, got {len(points)}")
        if len(lengths) != len(points):
            raise ValueError("points and lengths must have the same number of axes")
        for n in points:
            if n < 4:
                raise ValueError(f"need at least 4 points per axis, got {n}")
            if n % 2 != 0:
                raise ValueError(f"points per axis must be even, got {n}")
        for L in lengths:
            if not np.isfinite(L) or L <= 0.0:
                raise ValueError(f"axis length must be positive and finite, got {L}")

    @classmethod
    def line(cls, n: int, length: float) -> "Grid":
        return cls((n,), (length,))

    @classmethod
    def square(cls, n: int, length: float) -> "Grid":
        return cls((n, n), (length, length))

    @classmethod
    def cube(cls, n: int, length: float) -> "Grid":
        return cls((n, n, n), (length, length, length))

    @property
    def dims(self) -> int:
        return len(self.points)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.points

    @cached_property
    def spacings(self) -> tuple[float, ...]:
        return tuple(L / n for L, n in zip(self.lengths, self.points))

    @cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacings))

    @cached_property
    def size(self) -> int:
        return math.prod(self.points)  # exact, where np.prod wraps past 2**63

    def axis_coordinates(self, axis: int) -> np.ndarray:
        n = self.points[axis]
        return np.arange(n) * (self.lengths[axis] / n)

    def coordinate_arrays(self) -> tuple[np.ndarray, ...]:
        """Broadcastable coordinate arrays (meshgrid with 'ij' indexing, sparse)."""
        axes = [self.axis_coordinates(a) for a in range(self.dims)]
        return tuple(np.meshgrid(*axes, indexing="ij", sparse=True))


def check_same_grid(grid: Grid, *fields) -> None:
    """Raise GridMismatchError unless each of ``fields`` (anything with a ``grid``) lives on ``grid``."""
    for field in fields:
        if field.grid != grid:
            raise GridMismatchError(f"operands live on different grids: {field.grid} and {grid}")


@dataclass(frozen=True)
class _SampleField:
    """Finite samples of one field on ``grid``, coerced to the class's dtype.

    ``values`` has shape ``_components + grid.shape``. A real class refuses
    complex samples. Sums and differences take a field of the same class;
    they, negation and scaling by a number keep the class. A scalar-valued
    field also multiplies pointwise by a real field or one of its own class.
    """

    grid: Grid
    values: np.ndarray

    # The Python type of one sample; numpy reads it as float64 or complex128.
    _number: ClassVar[type] = float
    # Axes ahead of the grid axes, such as the three of a vector field.
    _components: ClassVar[tuple[int, ...]] = ()

    def __post_init__(self):
        if self._number is float and np.iscomplexobj(self.values):
            raise TypeError(f"{type(self).__name__} takes real samples, got complex ones")
        arr = np.asarray(self.values, dtype=self._number)
        shape = self._components + self.grid.shape
        if arr.shape != shape:
            raise ValueError(f"sample shape {arr.shape} does not match {shape}")
        if not np.isfinite(arr).all():
            raise NonFiniteSampleError("field contains non-finite samples")
        object.__setattr__(self, "values", arr)

    @classmethod
    def zeros(cls, grid: Grid):
        return cls(grid, np.zeros(cls._components + grid.shape, dtype=cls._number))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        check_same_grid(self.grid, other)
        return type(self)(self.grid, self.values + other.values)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        check_same_grid(self.grid, other)
        return type(self)(self.grid, self.values - other.values)

    def __mul__(self, other):
        if not self._components and isinstance(other, (ScalarSampleField, type(self))):
            check_same_grid(self.grid, other)
            return type(self)(self.grid, self.values * other.values)
        return type(self)(self.grid, self.values * self._number(other))

    __rmul__ = __mul__

    def __neg__(self):
        return type(self)(self.grid, -self.values)


@dataclass(frozen=True)
class ScalarSampleField(_SampleField):
    """Real scalar samples on a grid."""

    @classmethod
    def full(cls, grid: Grid, value: float) -> "ScalarSampleField":
        return cls(grid, np.full(grid.shape, float(value)))


@dataclass(frozen=True)
class ComplexSampleField(_SampleField):
    """Complex scalar samples on a grid."""

    _number = complex

    @classmethod
    def from_parts(cls, re: ScalarSampleField, im: ScalarSampleField) -> "ComplexSampleField":
        check_same_grid(re.grid, im)
        return cls(re.grid, re.values + 1j * im.values)

    @property
    def real(self) -> ScalarSampleField:
        return ScalarSampleField(self.grid, self.values.real.copy())

    @property
    def imag(self) -> ScalarSampleField:
        return ScalarSampleField(self.grid, self.values.imag.copy())


@dataclass(frozen=True)
class VectorSampleField3(_SampleField):
    """Three-component real vector field on a 3D grid.

    ``values`` has shape (3, nx, ny, nz); components share the grid by
    construction.
    """

    _components = (3,)

    def __post_init__(self):
        if self.grid.dims != 3:
            raise GridMismatchError("vector fields require a 3D grid")
        super().__post_init__()

    @classmethod
    def from_components(
        cls, fx: ScalarSampleField, fy: ScalarSampleField, fz: ScalarSampleField
    ) -> "VectorSampleField3":
        check_same_grid(fx.grid, fy, fz)
        return cls(fx.grid, np.stack([fx.values, fy.values, fz.values]))

    def component(self, i: int) -> ScalarSampleField:
        return ScalarSampleField(self.grid, self.values[i].copy())

    @property
    def x(self) -> ScalarSampleField:
        return self.component(0)

    @property
    def y(self) -> ScalarSampleField:
        return self.component(1)

    @property
    def z(self) -> ScalarSampleField:
        return self.component(2)

    def dot(self, other: "VectorSampleField3") -> ScalarSampleField:
        check_same_grid(self.grid, other)
        return ScalarSampleField(self.grid, np.einsum("i...,i...->...", self.values, other.values))


def integrate(field) -> float:
    """Discrete integral: sum of samples times cell volume."""
    return float(np.sum(field.values).real * field.grid.cell_volume)


def inner(a, b) -> complex | float:
    """Discrete L2 inner product <a, b> = sum conj(a)*b * cell volume."""
    check_same_grid(a.grid, b)
    val = np.vdot(a.values, b.values) * a.grid.cell_volume
    if np.iscomplexobj(a.values) or np.iscomplexobj(b.values):
        return complex(val)
    return float(val.real)


def l2_norm(field) -> float:
    v = np.asarray(field.values)
    return float(np.sqrt(np.sum(np.abs(v) ** 2) * field.grid.cell_volume))


def max_norm(field) -> float:
    return float(np.max(np.abs(field.values)))
