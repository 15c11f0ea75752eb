import itertools
import operator

import numpy as np
import pytest

from wavepot import maxwell, reconstruction, schrodinger, wavepotential
from wavepot.errors import GridMismatchError
from wavepot.grids import (
    ComplexSampleField,
    Grid,
    ScalarSampleField,
    VectorSampleField3,
    inner,
    integrate,
    l2_norm,
    max_norm,
)
from wavepot.maxwell import EMState, PotentialState
from wavepot.schrodinger import PotentialSpec, QuantumParams, WaveFunction
from wavepot.wavepotential import PhiState

# Each field class with a grid it lives on and the dtype of its samples.
FIELD_CLASSES = {
    ScalarSampleField: (Grid.line(8, 2.0), np.float64),
    ComplexSampleField: (Grid.line(8, 2.0), np.complex128),
    VectorSampleField3: (Grid.cube(4, 2.0), np.float64),
}


def sample_shape(cls, grid):
    return ((3,) if cls is VectorSampleField3 else ()) + grid.shape


def random_field(cls, grid, rng):
    shape = sample_shape(cls, grid)
    values = rng.standard_normal(shape)
    if cls is ComplexSampleField:
        values = values + 1j * rng.standard_normal(shape)
    return cls(grid, values)


def on_other_grid(cls, grid):
    """A zero field of ``cls`` on a grid with the same points and another length."""
    return cls.zeros(Grid(grid.points, tuple(2.0 * L for L in grid.lengths)))


class TestGrid:
    def test_basic_properties(self):
        g = Grid((8, 16), (2.0, 4.0))
        assert g.dims == 2
        assert g.spacings == (0.25, 0.25)
        assert g.cell_volume == 0.0625
        assert g.size == 128

    def test_coordinates_start_at_zero(self):
        g = Grid.line(8, 4.0)
        x = g.axis_coordinates(0)
        assert x[0] == 0.0
        assert x[-1] == pytest.approx(4.0 - 0.5)
        assert np.allclose(np.diff(x), 0.5)

    @pytest.mark.parametrize("n", [0, 2, 3, 5, 7])
    def test_rejects_small_or_odd_point_counts(self, n):
        with pytest.raises(ValueError):
            Grid.line(n, 1.0)

    @pytest.mark.parametrize("length", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_bad_lengths(self, length):
        with pytest.raises(ValueError):
            Grid.line(8, length)

    def test_rejects_too_many_axes(self):
        with pytest.raises(ValueError):
            Grid((4, 4, 4, 4), (1.0, 1.0, 1.0, 1.0))

    def test_equality_and_hash(self):
        assert Grid.line(8, 1.0) == Grid.line(8, 1.0)
        assert hash(Grid.cube(4, 2.0)) == hash(Grid.cube(4, 2.0))
        assert Grid.line(8, 1.0) != Grid.line(8, 2.0)


class TestFields:
    def test_scalar_shape_and_finiteness(self, grid64):
        with pytest.raises(ValueError):
            ScalarSampleField(grid64, np.zeros(3))
        bad = np.zeros(grid64.shape)
        bad[5] = np.nan
        with pytest.raises(ValueError):
            ScalarSampleField(grid64, bad)

    def test_scalar_arithmetic(self, grid64):
        a = ScalarSampleField.full(grid64, 2.0)
        b = ScalarSampleField.full(grid64, 3.0)
        assert np.all((a + b).values == 5.0)
        assert np.all((a - b).values == -1.0)
        assert np.all((a * b).values == 6.0)
        assert np.all((2.0 * a).values == 4.0)
        assert np.all((-a).values == -2.0)

    def test_grid_mismatch_raises(self):
        a = ScalarSampleField.zeros(Grid.line(8, 1.0))
        b = ScalarSampleField.zeros(Grid.line(8, 2.0))
        with pytest.raises(GridMismatchError):
            _ = a + b

    def test_complex_parts_roundtrip(self, grid64, rng):
        re = ScalarSampleField(grid64, rng.standard_normal(grid64.shape))
        im = ScalarSampleField(grid64, rng.standard_normal(grid64.shape))
        c = ComplexSampleField.from_parts(re, im)
        assert np.allclose(c.real.values, re.values)
        assert np.allclose(c.imag.values, im.values)

    def test_vector_requires_3d(self, grid64):
        with pytest.raises(GridMismatchError):
            VectorSampleField3.zeros(grid64)
        with pytest.raises(GridMismatchError):
            VectorSampleField3(Grid.line(8, 1.0), np.zeros((3, 8)))

    def test_vector_components_share_grid(self, cube16, rng):
        v = VectorSampleField3(cube16, rng.standard_normal((3,) + cube16.shape))
        assert v.x.grid == v.y.grid == v.z.grid == cube16
        assert np.allclose(v.dot(v).values, np.sum(v.values**2, axis=0))


@pytest.mark.parametrize("cls", list(FIELD_CLASSES), ids=lambda cls: cls.__name__)
class TestFieldBehaviour:
    def test_arithmetic_keeps_the_class(self, cls, rng):
        grid, dtype = FIELD_CLASSES[cls]
        a, b = random_field(cls, grid, rng), random_field(cls, grid, rng)
        number = 1.5 - 2.0j if cls is ComplexSampleField else 2.5
        cases = [
            ("a + b", a + b, a.values + b.values),
            ("a - b", a - b, a.values - b.values),
            ("-a", -a, -a.values),
            ("a * number", a * number, a.values * number),
            ("number * a", number * a, a.values * number),
            ("3 * a", 3 * a, a.values * 3),
        ]
        if cls is VectorSampleField3:
            with pytest.raises(TypeError):
                _ = a * b
        else:
            cases.append(("a * b", a * b, a.values * b.values))
        for name, got, expected in cases:
            assert type(got) is cls, name
            assert got.grid == grid, name
            assert got.values.dtype == dtype, name
            assert np.array_equal(got.values, expected), name

    def test_zeros(self, cls):
        grid, dtype = FIELD_CLASSES[cls]
        z = cls.zeros(grid)
        assert type(z) is cls
        assert z.values.dtype == dtype
        assert z.values.shape == sample_shape(cls, grid)
        assert not z.values.any()

    def test_mismatched_grids_raise(self, cls, rng):
        grid, _ = FIELD_CLASSES[cls]
        a, b = random_field(cls, grid, rng), on_other_grid(cls, grid)
        operations = [lambda: a + b, lambda: a - b, lambda: inner(a, b)]
        if cls is not VectorSampleField3:
            operations.append(lambda: a * b)
        if cls is ScalarSampleField:
            operations.append(lambda: ComplexSampleField.from_parts(a, b))
        if cls is ComplexSampleField:
            operations.append(lambda: a * ScalarSampleField.zeros(b.grid))
        if cls is VectorSampleField3:
            fx, other = a.x, ScalarSampleField.zeros(b.grid)
            operations.append(lambda: a.dot(b))
            operations.append(lambda: VectorSampleField3.from_components(fx, fx, other))
            operations.append(lambda: VectorSampleField3.from_components(fx, other, fx))
        for operation in operations:
            with pytest.raises(GridMismatchError):
                operation()

    def test_rejects_bad_samples(self, cls):
        grid, _ = FIELD_CLASSES[cls]
        shape = sample_shape(cls, grid)
        with pytest.raises(ValueError):
            cls(grid, np.zeros(shape[:-1] + (shape[-1] + 2,)))
        with pytest.raises(ValueError):
            cls(grid, np.zeros(shape[1:]))
        for bad in (np.nan, np.inf, -np.inf):
            values = np.zeros(shape)
            values.flat[3] = bad
            with pytest.raises(ValueError):
                cls(grid, values)

    def test_integer_input_is_coerced(self, cls):
        grid, dtype = FIELD_CLASSES[cls]
        ints = np.arange(np.prod(sample_shape(cls, grid))).reshape(sample_shape(cls, grid))
        field = cls(grid, ints)
        assert field.values.dtype == dtype
        assert np.array_equal(field.values, ints)


class TestCrossClassProducts:
    """The products between classes, pinned as they stand."""

    def test_complex_times_scalar_is_complex(self, grid64, rng):
        c = random_field(ComplexSampleField, grid64, rng)
        s = random_field(ScalarSampleField, grid64, rng)
        got = c * s
        assert type(got) is ComplexSampleField
        assert np.array_equal(got.values, c.values * s.values)

    def test_scalar_times_complex_raises(self, grid64):
        with pytest.raises(TypeError):
            _ = ScalarSampleField.zeros(grid64) * ComplexSampleField.zeros(grid64)

    def test_vector_times_scalar_raises(self, cube16):
        v, s = VectorSampleField3.zeros(cube16), ScalarSampleField.zeros(cube16)
        with pytest.raises(TypeError):
            _ = v * s
        with pytest.raises(TypeError):
            _ = s * v


class TestCrossClassSums:
    """Sums and differences between classes raise: no part of a sample is dropped."""

    @pytest.mark.parametrize("op", [operator.add, operator.sub], ids=["add", "sub"])
    @pytest.mark.parametrize(
        "left, right",
        list(itertools.permutations(FIELD_CLASSES, 2)),
        ids=lambda cls: cls.__name__,
    )
    def test_mixed_classes_raise(self, left, right, op):
        grid = Grid.cube(4, 2.0)
        with pytest.raises(TypeError):
            op(left.zeros(grid), right.zeros(grid))

    @pytest.mark.parametrize("cls", [ScalarSampleField, VectorSampleField3])
    def test_real_classes_refuse_complex_samples(self, cls):
        grid = FIELD_CLASSES[cls][0]
        # even a zero imaginary part: a real field is built from real samples
        with pytest.raises(TypeError, match="real samples"):
            cls(grid, np.zeros(sample_shape(cls, grid), dtype=complex))


def _quantum_cases():
    grid = Grid.line(8, 2 * np.pi)
    other = Grid.line(8, 3.0)
    params = QuantumParams()
    zero = ScalarSampleField.zeros(grid)
    V, V_other = PotentialSpec.zero(grid), PotentialSpec.zero(other)
    psi = WaveFunction(ComplexSampleField.zeros(grid), params)
    state = PhiState(zero, zero, params, V)
    return {
        "gauge_shift": lambda: wavepotential.gauge_shift(state, ScalarSampleField.zeros(other)),
        "apply_hamiltonian": lambda: schrodinger.apply_hamiltonian(psi, V_other),
        "canonical_rhs": lambda: schrodinger.canonical_rhs(zero, zero, V_other, params),
        "generalized_rhs": lambda: schrodinger.generalized_rhs(zero, zero, V_other, params),
        "hamiltonian_canonical": lambda: schrodinger.hamiltonian_canonical(
            zero, ScalarSampleField.zeros(other), V, params
        ),
        "crank_nicolson_step": lambda: schrodinger.crank_nicolson_step(psi, V_other, 0.01),
        "exact_propagate_small": lambda: schrodinger.exact_propagate_small(psi, V_other, 0.5),
        "solve_elliptic": lambda: reconstruction.solve_elliptic(
            V, ScalarSampleField.zeros(other), params
        ),
        "reconstruct_phi": lambda: reconstruction.reconstruct_phi(
            [0.0, 0.1], [psi.psi, psi.psi], V_other, params
        ),
        "PhiState": lambda: PhiState(zero, ScalarSampleField.zeros(other), params, V),
    }


def _em_cases():
    grid = Grid.cube(4, 2 * np.pi)
    other = Grid.cube(4, 3.0)
    vec, vec_other = VectorSampleField3.zeros(grid), VectorSampleField3.zeros(other)
    rho_other = ScalarSampleField.zeros(other)
    fields, potential = EMState(vec, vec), PotentialState(vec, vec)
    return {
        "em_rhs": lambda: maxwell.em_rhs(fields, vec_other),
        "constraint_residual": lambda: maxwell.constraint_residual(fields, rho_other),
        "potential_acceleration": lambda: maxwell.potential_acceleration(potential, vec_other),
        "potential_constraint_residual": lambda: maxwell.potential_constraint_residual(
            potential, rho_other
        ),
        "em_hamiltonians": lambda: maxwell.em_hamiltonians(fields, vec_other),
        "gauge_shift_potential": lambda: maxwell.gauge_shift_potential(potential, rho_other),
        "EMState": lambda: EMState(vec, vec_other),
        "PotentialState": lambda: PotentialState(vec, vec_other),
    }


ENTRY_POINTS = {**_quantum_cases(), **_em_cases()}


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_entry_points_reject_a_field_on_another_grid(name):
    with pytest.raises(GridMismatchError):
        ENTRY_POINTS[name]()


class TestNorms:
    def test_integrate_constant(self):
        g = Grid.line(16, 5.0)
        f = ScalarSampleField.full(g, 2.0)
        assert integrate(f) == pytest.approx(10.0)

    def test_l2_and_inner_consistency(self, grid64, rng):
        f = ScalarSampleField(grid64, rng.standard_normal(grid64.shape))
        assert l2_norm(f) == pytest.approx(np.sqrt(inner(f, f)))

    def test_max_norm(self, grid64):
        vals = np.zeros(grid64.shape)
        vals[3] = -7.0
        assert max_norm(ScalarSampleField(grid64, vals)) == 7.0
