import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import band_limited, smooth_scalar, smooth_vector
from wavepot.errors import GridMismatchError
from wavepot.grids import Grid, ScalarSampleField, VectorSampleField3, integrate, max_norm
from wavepot.maxwell import _potential_accel_arrays, coulomb_field_from_charge
from wavepot.operators import (
    _curl_arrays,
    curl,
    curl_curl_identity_residual,
    divergence,
    divergence_array,
    first_derivative_array,
    from_modes,
    gradient,
    gradient_arrays,
    inverse_div_grad,
    laplacian,
    laplacian_array,
    laplacian_spectral_radius,
    live_quotient,
    modes,
    solenoidal_projection,
    symbols,
)
from wavepot.schrodinger import (
    QuantumParams,
    hamiltonian_array,
    l_operator_array,
    real_l_operator,
)
from wavepot.wavepotential import DENSE_L_LIMIT

METHODS = ("spectral", "central2")
SRC = Path(__file__).resolve().parent.parent / "src" / "wavepot"

# unequal points and lengths per axis, so a transposed axis shows
GRIDS = {
    "1d": Grid((16,), (3.0,)),
    "2d": Grid((12, 8), (3.0, 5.0)),
    "3d": Grid((8, 6, 10), (2.0, 3.0, 4.0)),
}
CUBE = GRIDS["3d"]


def stencil_derivative(values, grid, axis):
    """(f_{+1} - f_{-1}) / (2 dx) along one grid axis: the central2 reference."""
    a = axis + values.ndim - grid.dims
    dx = grid.spacings[axis]
    return (np.roll(values, -1, axis=a) - np.roll(values, 1, axis=a)) / (2.0 * dx)


def stencil_laplacian(values, grid):
    """sum_a (f_{+2} - 2f + f_{-2}) / (4 dx_a^2), the composed first-difference stencil."""
    out = np.zeros_like(values)
    for axis, dx in enumerate(grid.spacings):
        a = axis + values.ndim - grid.dims
        out += (np.roll(values, -2, axis=a) - 2.0 * values + np.roll(values, 2, axis=a)) / (
            4.0 * dx * dx
        )
    return out


def stencil_curl(values, grid):
    d = lambda comp, axis: stencil_derivative(values[comp], grid, axis)
    return np.stack([d(2, 1) - d(1, 2), d(0, 2) - d(2, 0), d(1, 0) - d(0, 1)])


def stencil_potential_accel(a, j, c, grid):
    div = sum(stencil_derivative(a[i], grid, i) for i in range(3))
    grad_div = np.stack([stencil_derivative(div, grid, i) for i in range(3)])
    return c * c * (stencil_laplacian(a, grid) - grad_div) + c * j


def random_samples(shape, rng, complex_):
    out = rng.standard_normal(shape)
    return out + 1j * rng.standard_normal(shape) if complex_ else out


def assert_close(got, ref, rel=1e-12):
    assert got.shape == ref.shape
    assert np.iscomplexobj(got) == np.iscomplexobj(ref)
    assert np.max(np.abs(got - ref)) <= rel * np.max(np.abs(ref))


class TestLaplacian:
    def test_single_mode_spectral_exact(self):
        g = Grid.line(64, 2 * np.pi)
        x = g.axis_coordinates(0)
        f = ScalarSampleField(g, np.sin(2 * np.pi * x / g.lengths[0]))
        out = laplacian(f, "spectral")
        expected = -((2 * np.pi / g.lengths[0]) ** 2) * f.values
        assert np.max(np.abs(out.values - expected)) <= 1e-12

    @pytest.mark.parametrize("method", METHODS)
    def test_constant_maps_to_zero(self, grid64, method):
        f = ScalarSampleField.full(grid64, 4.2)
        assert max_norm(laplacian(f, method)) <= 1e-13

    def test_central2_converges_to_spectral_at_second_order(self):
        # fixed smooth profile sampled on refined grids; spectral is exact here
        errs = []
        for n in (32, 64, 128):
            g = Grid.line(n, 2 * np.pi)
            x = g.axis_coordinates(0)
            f = ScalarSampleField(g, np.sin(x) + 0.5 * np.cos(3 * x) + 0.2 * np.sin(4 * x))
            exact = laplacian(f, "spectral").values
            approx = laplacian(f, "central2").values
            errs.append(np.max(np.abs(exact - approx)))
        order1 = np.log2(errs[0] / errs[1])
        order2 = np.log2(errs[1] / errs[2])
        assert 1.8 <= order1 <= 2.2
        assert 1.8 <= order2 <= 2.2

    def test_2d_mixed_mode(self):
        g = Grid.square(32, 2 * np.pi)
        x, y = np.meshgrid(g.axis_coordinates(0), g.axis_coordinates(1), indexing="ij")
        f = ScalarSampleField(g, np.sin(x) * np.cos(2 * y))
        out = laplacian(f, "spectral")
        assert np.allclose(out.values, -5.0 * f.values, atol=1e-11)

    def test_spectral_radius_formula(self):
        g = Grid.line(64, 2 * np.pi)
        assert laplacian_spectral_radius(g, "spectral") == pytest.approx(32.0**2)
        assert laplacian_spectral_radius(g, "central2") == pytest.approx(
            1.0 / g.spacings[0] ** 2
        )
        g3 = Grid.cube(16, 2.0)
        assert laplacian_spectral_radius(g3, "spectral") == pytest.approx(
            3 * (np.pi / g3.spacings[0]) ** 2
        )


class TestVectorCalculus:
    def test_gradient_requires_3d(self, grid64):
        with pytest.raises(GridMismatchError):
            gradient(ScalarSampleField.zeros(grid64))

    def test_curl_of_single_mode(self, cube16):
        # v = (sin(2 pi y / L), 0, 0) has curl (0, 0, -(2 pi / L) cos(2 pi y / L))
        L = cube16.lengths[1]
        _, y, _ = np.meshgrid(*[cube16.axis_coordinates(a) for a in range(3)], indexing="ij")
        v = VectorSampleField3(
            cube16, np.stack([np.sin(2 * np.pi * y / L), np.zeros_like(y), np.zeros_like(y)])
        )
        out = curl(v, "spectral")
        expected_z = -(2 * np.pi / L) * np.cos(2 * np.pi * y / L)
        assert np.max(np.abs(out.values[0])) <= 1e-12
        assert np.max(np.abs(out.values[1])) <= 1e-12
        assert np.max(np.abs(out.values[2] - expected_z)) <= 1e-11

    @pytest.mark.parametrize("method", METHODS)
    def test_curl_grad_is_zero(self, cube16, rng, method):
        f = smooth_scalar(cube16, rng)
        assert max_norm(curl(gradient(f, method), method)) <= 1e-11

    @pytest.mark.parametrize("method", METHODS)
    def test_div_curl_is_zero(self, cube16, rng, method):
        v = smooth_vector(cube16, rng)
        assert max_norm(divergence(curl(v, method), method)) <= 1e-11

    @pytest.mark.parametrize("method", METHODS)
    def test_curl_curl_identity(self, cube16, rng, method):
        v = smooth_vector(cube16, rng)
        assert curl_curl_identity_residual(v, method) <= 1e-11

    def test_curl_curl_identity_transverse_mode(self, cube16):
        x = np.meshgrid(*[cube16.axis_coordinates(a) for a in range(3)], indexing="ij")[0]
        v = VectorSampleField3(cube16, np.stack([np.zeros_like(x), np.cos(x), np.zeros_like(x)]))
        assert curl_curl_identity_residual(v, "spectral") <= 1e-12


class TestOperatorProperties:
    @given(a=st.floats(-3, 3), b=st.floats(-3, 3), seed=st.integers(0, 2**16))
    def test_linearity(self, a, b, seed):
        rng = np.random.default_rng(seed)
        g = Grid.line(32, 2 * np.pi)
        f = band_limited(g, rng)
        h = band_limited(g, rng)
        lhs = laplacian_array(a * f + b * h, g, "spectral")
        rhs = a * laplacian_array(f, g, "spectral") + b * laplacian_array(h, g, "spectral")
        assert np.max(np.abs(lhs - rhs)) <= 1e-11 * max(1.0, abs(a) + abs(b))

    def test_integration_by_parts(self, grid64, rng):
        f = ScalarSampleField(grid64, rng.standard_normal(grid64.shape))
        g = ScalarSampleField(grid64, rng.standard_normal(grid64.shape))
        left = integrate(f * laplacian(g, "spectral"))
        right = integrate(laplacian(f, "spectral") * g)
        scale = max(abs(left), abs(right), 1.0)
        assert abs(left - right) <= 1e-10 * scale

    @pytest.mark.parametrize("mode", [1, 3, 7, 15])
    def test_single_fourier_mode_derivative_exact(self, mode):
        g = Grid.line(64, 5.0)
        x = g.axis_coordinates(0)
        k = 2 * np.pi * mode / g.lengths[0]
        f = np.sin(k * x)
        out = first_derivative_array(f, g, 0, "spectral")
        assert np.max(np.abs(out - k * np.cos(k * x))) <= 1e-12 * k


class TestPoissonHelpers:
    def test_inverse_div_grad_roundtrip(self, cube16, rng):
        f = band_limited(cube16, rng)
        f -= f.mean()
        u = inverse_div_grad(f, cube16, "spectral")
        back = sum(
            first_derivative_array(
                first_derivative_array(u, cube16, a, "spectral"), cube16, a, "spectral"
            )
            for a in range(3)
        )
        assert np.max(np.abs(back - f)) <= 1e-11

    def test_inverse_div_grad_rejects_mean(self, cube16):
        with pytest.raises(ValueError):
            inverse_div_grad(np.ones(cube16.shape), cube16, "spectral")

    def test_solenoidal_projection_kills_divergence(self, cube16, rng):
        v = smooth_vector(cube16, rng)
        out = solenoidal_projection(v, "spectral")
        assert max_norm(divergence(out, "spectral")) <= 1e-12


class TestCentral2AgainstStencils:
    """central2 is the exact Fourier symbol of its stencils: both agree to roundoff."""

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("batch", [(), (2,)], ids=["single", "batch"])
    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_scalar_operators(self, name, batch, complex_, rng):
        grid = GRIDS[name]
        f = random_samples(batch + grid.shape, rng, complex_)
        v = rng.uniform(0.0, 3.0, grid.shape)
        params = QuantumParams(1.3, 0.7)
        kin = params.hbar**2 / (2.0 * params.mass)
        for axis in range(grid.dims):
            assert_close(
                first_derivative_array(f, grid, axis, "central2"), stencil_derivative(f, grid, axis)
            )
        assert_close(laplacian_array(f, grid, "central2"), stencil_laplacian(f, grid))
        expected_l = kin * stencil_laplacian(f, grid) - v * f
        assert_close(l_operator_array(f, v, grid, params, "central2"), expected_l)
        if not complex_:
            assert_close(real_l_operator(grid, v, params, "central2")(f), expected_l)

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    def test_curl_and_potential_acceleration(self, complex_, rng):
        a = random_samples((3,) + CUBE.shape, rng, complex_)
        j = random_samples((3,) + CUBE.shape, rng, complex_)
        assert_close(_curl_arrays(a, CUBE, "central2"), stencil_curl(a, CUBE))
        assert_close(
            _potential_accel_arrays(a, j, 1.7, CUBE, "central2"),
            stencil_potential_accel(a, j, 1.7, CUBE),
        )

    def test_inverse_div_grad_inverts_the_stencils(self, rng):
        f = band_limited(CUBE, rng)
        f -= f.mean()
        u = inverse_div_grad(f, CUBE, "central2")
        back = sum(
            stencil_derivative(stencil_derivative(u, CUBE, a), CUBE, a) for a in range(3)
        )
        assert np.max(np.abs(back - f)) <= 1e-12 * np.max(np.abs(f))


class TestRealAndComplexInputAgree:
    """op(f + i g) = op(f) + i op(g): the half and the full spectrum give one operator."""

    @staticmethod
    def check(op, f, g):
        assert_close(op(f + 1j * g), op(f) + 1j * op(g))
        assert not np.iscomplexobj(op(f))

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_scalar_operators(self, name, method, rng):
        grid = GRIDS[name]
        f, g = rng.standard_normal((2,) + grid.shape)
        v = rng.uniform(0.0, 3.0, grid.shape)
        params = QuantumParams()
        self.check(lambda x: laplacian_array(x, grid, method), f, g)
        for axis in range(grid.dims):
            self.check(lambda x: first_derivative_array(x, grid, axis, method), f, g)
        self.check(lambda x: l_operator_array(x, v, grid, params, method), f, g)
        self.check(lambda x: hamiltonian_array(x, v, grid, params, method), f, g)
        f, g = band_limited(grid, rng), band_limited(grid, rng)
        self.check(lambda x: inverse_div_grad(x - x.mean(), grid, method), f, g)

    @pytest.mark.parametrize("method", METHODS)
    def test_vector_operators(self, method, rng):
        f, g = rng.standard_normal((2, 3) + CUBE.shape)
        j = np.zeros_like(f)
        self.check(lambda x: _curl_arrays(x, CUBE, method), f, g)
        self.check(lambda x: _potential_accel_arrays(x, j, 1.7, CUBE, method), f, g)


def written_out(values, grid, method, modewise):
    """``modewise(hat, sym)`` between np.fft transforms called directly: rfft and
    irfft on a real line, rfftn and irfftn over the grid axes of real samples,
    fft/fftn and their inverses on complex ones."""
    real = not np.iscomplexobj(values)
    sym = symbols(grid, method, real)
    axes = tuple(range(-grid.dims, 0))
    if grid.dims == 1 and real:
        return np.fft.irfft(modewise(np.fft.rfft(values), sym), n=grid.points[0])
    if grid.dims == 1:
        return np.fft.ifft(modewise(np.fft.fft(values), sym))
    if real:
        hat = np.fft.rfftn(values, axes=axes)
        return np.fft.irfftn(modewise(hat, sym), s=grid.shape, axes=axes)
    return np.fft.ifftn(modewise(np.fft.fftn(values, axes=axes), sym), axes=axes)


def written_out_potential_accel(hat, sym):
    s, lap = sym.deriv, sym.lap
    dsum = s[0] * hat[0] + s[1] * hat[1] + s[2] * hat[2]
    return np.stack([lap * hat[b] + s[b] * dsum for b in range(3)])


def written_out_curl(hat, sym):
    s = sym.deriv
    x = s[1] * hat[2] - s[2] * hat[1]
    y = s[2] * hat[0] - s[0] * hat[2]
    z = s[0] * hat[1] - s[1] * hat[0]
    return 1j * np.stack([x, y, z])


class TestOneTransformPath:
    """Every operator gives the bytes of its mode-wise arithmetic between direct
    np.fft calls, for real and complex samples in 1D and 3D."""

    @staticmethod
    def same_bytes(got, ref):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("name", ["1d", "3d"])
    def test_scalar_operators(self, name, method, complex_, rng):
        grid = GRIDS[name]
        f = random_samples((2,) + grid.shape, rng, complex_)  # a leading batch axis
        spectrum = modes(f, grid, method)
        assert spectrum.real is not complex_
        self.same_bytes(from_modes(spectrum), written_out(f, grid, method, lambda h, sym: h))
        ref = written_out(f, grid, method, lambda h, sym: h * sym.lap)
        self.same_bytes(laplacian_array(f, grid, method), ref)
        for axis, got in enumerate(gradient_arrays(f, grid, method)):
            ref = written_out(f, grid, method, lambda h, sym: h * (1j * sym.deriv[axis]))
            self.same_bytes(first_derivative_array(f, grid, axis, method), ref)
            self.same_bytes(got, ref)
        u = np.stack([band_limited(grid, rng) for _ in range(2)])
        u = u - u.mean(axis=tuple(range(1, u.ndim)), keepdims=True)
        if complex_:
            u = u + 1j * u[::-1]
        ref = written_out(u, grid, method, lambda h, sym: live_quotient(h, sym.div_grad, "u"))
        self.same_bytes(inverse_div_grad(u, grid, method), ref)

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("method", METHODS)
    def test_vector_operators(self, method, complex_, rng):
        a = random_samples((3,) + CUBE.shape, rng, complex_)
        j = rng.standard_normal((3,) + CUBE.shape)
        div = lambda h, sym: 1j * (sym.deriv[0] * h[0] + sym.deriv[1] * h[1] + sym.deriv[2] * h[2])
        self.same_bytes(divergence_array(a, CUBE, method), written_out(a, CUBE, method, div))
        ref = written_out(a, CUBE, method, written_out_curl)
        self.same_bytes(_curl_arrays(a, CUBE, method), ref)
        ref = 1.7 * 1.7 * written_out(a, CUBE, method, written_out_potential_accel) + 1.7 * j
        self.same_bytes(_potential_accel_arrays(a, j, 1.7, CUBE, method), ref)


class TestRealLOperator:
    """real_l_operator is the FFT closure on every grid, at and above the size
    up to which run_verlet steps L's normal modes."""

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize(
        "grid, batch",
        [
            (Grid.line(DENSE_L_LIMIT, 20.0), ()),
            (Grid.line(2 * DENSE_L_LIMIT, 20.0), ()),
            (Grid((8, 16), (3.0, 5.0)), ()),
            (Grid.line(DENSE_L_LIMIT, 20.0), (2,)),
        ],
        ids=["at-cutoff", "above-cutoff", "2d-8x16", "batch"],
    )
    def test_matches_l_operator_array(self, grid, batch, method, rng):
        f = rng.standard_normal(batch + grid.shape)
        v = rng.uniform(0.0, 3.0, grid.shape)
        params = QuantumParams(1.3, 0.7)
        got = real_l_operator(grid, v, params, method)(f)
        assert got.shape == f.shape
        assert got.tobytes() == l_operator_array(f, v, grid, params, method).tobytes()

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize(
        "grid, batch",
        [
            (Grid.line(DENSE_L_LIMIT, 20.0), ()),
            (Grid.line(2 * DENSE_L_LIMIT, 20.0), ()),
            (Grid((8, 16), (3.0, 5.0)), ()),
            (Grid.line(DENSE_L_LIMIT, 20.0), (2,)),
            (Grid.line(2 * DENSE_L_LIMIT, 20.0), (3,)),
        ],
        ids=["at-cutoff", "above-cutoff", "2d-8x16", "batch", "batch-above-cutoff"],
    )
    def test_out_gets_the_same_bytes(self, grid, batch, method, rng):
        f = rng.standard_normal(batch + grid.shape)
        v = rng.uniform(0.0, 3.0, grid.shape)
        lop = real_l_operator(grid, v, QuantumParams(1.3, 0.7), method)
        kept = f.copy()
        buf = np.full_like(f, np.nan)
        assert lop(f, out=buf) is buf
        assert buf.tobytes() == lop(f).tobytes()
        assert f.tobytes() == kept.tobytes()


class TestOneL:
    """l_operator_array is one apply of real_l_operator and hamiltonian_array its
    negation, bit for bit, for real and complex samples, with and without ``out``."""

    @pytest.mark.parametrize("out", [False, True], ids=["fresh", "out"])
    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_h_and_l_are_the_closure(self, name, method, complex_, out, rng):
        grid = GRIDS[name]
        f = random_samples((2,) + grid.shape, rng, complex_)  # a leading batch axis
        v = rng.uniform(0.0, 3.0, grid.shape)
        params = QuantumParams(1.3, 0.7)  # hbar^2/2m is no power of two
        lop = real_l_operator(grid, v, params, method)
        ref = lop(f, out=np.full_like(f, np.nan)) if out else lop(f)
        assert ref.dtype == f.dtype and ref.shape == f.shape
        for got, want in [
            (l_operator_array(f, v, grid, params, method), ref),
            (hamiltonian_array(f, v, grid, params, method), -ref),
        ]:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestDeadModes:
    @pytest.mark.parametrize("method", METHODS)
    def test_nyquist_null_mode_rejected(self, method):
        # zero mean, but (-1)^i sits on a mode where every derivative symbol vanishes
        grid = Grid.cube(8, 2 * np.pi)
        i = np.arange(8)
        rho = np.broadcast_to(((-1.0) ** i + np.cos(2 * np.pi * i / 8))[:, None, None], grid.shape)
        with pytest.raises(ValueError, match="vanishes"):
            inverse_div_grad(rho, grid, method)
        with pytest.raises(ValueError, match="vanishes"):
            coulomb_field_from_charge(ScalarSampleField(grid, rho.copy()), method)

    @pytest.mark.parametrize("method", METHODS)
    def test_roundoff_in_dead_modes_passes(self, cube16, rng, method):
        x = cube16.axis_coordinates(0)[:, None, None]
        rho = np.broadcast_to(np.cos(x) + 1e-15 * np.cos(8 * x), cube16.shape)
        e = coulomb_field_from_charge(ScalarSampleField(cube16, rho.copy()), method)
        assert max_norm(divergence(e, method) - ScalarSampleField(cube16, rho.copy())) <= 1e-12


def _nodes_with_function(path: Path):
    """Each node of the file with its innermost enclosing function (None at module level)."""

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            yield child, function
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            yield from visit(child, inner)

    return visit(ast.parse(path.read_text()), None)


def _misplaced_transforms(path: Path) -> list[str]:
    """np.roll anywhere, np.fft transforms outside operators._transforms, fft imports."""
    found = []
    for child, function in _nodes_with_function(path):
        where = f"{path.name}:{getattr(child, 'lineno', '?')}"
        if isinstance(child, ast.Attribute):
            if child.attr == "roll" and isinstance(child.value, ast.Name):
                found.append(f"{where} {child.value.id}.roll")
            if (
                isinstance(child.value, ast.Attribute)
                and child.value.attr == "fft"
                and child.attr != "fftfreq"
                and (path.name, function) != ("operators.py", "_transforms")
            ):
                found.append(f"{where} fft.{child.attr} in {function}")
        if isinstance(child, ast.ImportFrom) and "fft" in (child.module or "") + "".join(
            alias.name for alias in child.names
        ):
            found.append(f"{where} fft import")
        if isinstance(child, ast.Import) and any("fft" in alias.name for alias in child.names):
            found.append(f"{where} fft import")
    return found


def test_transforms_only_in_the_operator_layer():
    paths = sorted(SRC.glob("*.py"))
    assert any(p.name == "operators.py" for p in paths)
    found = [hit for path in paths for hit in _misplaced_transforms(path)]
    assert not found, found


# The quantum side of the package, where the kinetic symbol T = -(hbar^2/2m) Lap
# is formed once, by schrodinger.kinetic_symbol, and read from there.
QUANTUM_SIDE = ("schrodinger.py", "wavepotential.py", "reconstruction.py", "scenario.py")


def _laplacians_formed(path: Path) -> list[tuple[str, str | None]]:
    """(file, enclosing function) of each read of a ``.lap`` symbol and each call
    of ``laplacian_array`` or ``laplacian``."""
    found = []
    for child, function in _nodes_with_function(path):
        if isinstance(child, ast.Attribute) and child.attr == "lap":
            found.append((path.name, function))
        elif isinstance(child, ast.Call) and getattr(
            child.func, "id", getattr(child.func, "attr", None)
        ) in ("laplacian_array", "laplacian"):
            found.append((path.name, function))
    return found


def test_kinetic_symbol_formed_once():
    found = [hit for name in QUANTUM_SIDE for hit in _laplacians_formed(SRC / name)]
    assert found == [("schrodinger.py", "kinetic_symbol")], found


def test_kinetic_symbol_guard_flags_a_mutated_copy(tmp_path):
    source = (SRC / "reconstruction.py").read_text()
    anchor = "kinetic_symbol(grid, method, params.kinetic) + shift"
    assert source.count(anchor) == 1
    mutated = tmp_path / "reconstruction.py"
    mutated.write_text(source.replace(anchor, "-params.kinetic * symbols(grid, method).lap + shift"))
    assert _laplacians_formed(mutated) == [("reconstruction.py", "_fourier_preconditioner")]
    source = (SRC / "schrodinger.py").read_text()
    anchor = "    return -real_l_operator(grid, v, params, method)(values)\n"
    assert source.count(anchor) == 1
    inline = "    return -params.kinetic * laplacian_array(values, grid, method) + v * values\n"
    mutated = tmp_path / "schrodinger.py"
    mutated.write_text(source.replace(anchor, inline))
    assert _laplacians_formed(mutated) == [
        ("schrodinger.py", "kinetic_symbol"), ("schrodinger.py", "hamiltonian_array"),
    ]


def _names_updated_twice(path: Path) -> list[tuple[str, str, str]]:
    """(file, function, name) of each name that one function, not counting the
    functions nested in it, updates by augmented assignment more than once; a
    subscript or attribute counts as its base name."""
    found = []
    for function in ast.walk(ast.parse(path.read_text())):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        names, stack = [], list(function.body)
        while stack:
            node = stack.pop()
            if isinstance(node, ast.AugAssign):
                target = node.target
                while isinstance(target, (ast.Subscript, ast.Attribute)):
                    target = target.value
                names.append(getattr(target, "id", None))
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                stack.extend(ast.iter_child_nodes(node))
        found += [(path.name, function.name, n) for n in set(names) if names.count(n) > 1]
    return sorted(found)


# Velocity-Verlet is written once, in stepping.verlet, whose step updates v twice
# (the two half kicks). Both Verlet runs hand it their kick; a run that writes
# its own kick-drift-kick again updates its velocity twice.
def test_verlet_written_once():
    found = [
        hit for name in ("wavepotential.py", "maxwell.py") for hit in _names_updated_twice(SRC / name)
    ]
    assert found == [], found
    assert _names_updated_twice(SRC / "stepping.py") == [("stepping.py", "advance", "v")]


def test_verlet_guard_flags_a_mutated_copy(tmp_path):
    source = (SRC / "wavepotential.py").read_text()
    anchor = "        np.multiply(a, half_kick, out=out)\n"
    assert source.count(anchor) == 1
    inline = "        vel += out\n        a += vel * dt\n" + anchor + "        vel += out\n"
    mutated = tmp_path / "wavepotential.py"
    mutated.write_text(source.replace(anchor, inline))
    assert _names_updated_twice(mutated) == [("wavepotential.py", "kick", "vel")]
    source = (SRC / "maxwell.py").read_text()
    anchor = "        np.multiply(accel, 0.5 * dt, out=out)\n"
    assert source.count(anchor) == 1
    inline = "        vel[:] += out\n        a += dt * vel\n" + anchor + "        vel[:] += out\n"
    mutated = tmp_path / "maxwell.py"
    mutated.write_text(source.replace(anchor, inline))
    assert _names_updated_twice(mutated) == [("maxwell.py", "kick", "vel")]


def _scipy_imports(path: Path) -> list[tuple[str, str | None, str]]:
    """(file, enclosing function or None at module level, module) of each scipy import."""
    found = []
    for child, function in _nodes_with_function(path):
        if isinstance(child, ast.Import):
            modules = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom) and not child.level:
            modules = [child.module or ""]
        else:
            continue
        found.extend(
            (path.name, function, module)
            for module in modules
            if module == "scipy" or module.startswith("scipy.")
        )
    return found


# src/wavepot imports no scipy anywhere, not even inside a function: numpy's
# dense and block eigensolvers serve every path, and no run pays scipy's import.
def test_no_scipy_import_in_the_package():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in _scipy_imports(path)]
    assert found == [], found


def test_scipy_guard_flags_a_mutated_copy(tmp_path):
    source = (SRC / "schrodinger.py").read_text()
    anchor = "    mat = dense_hamiltonian(V, params, method)\n"
    assert anchor in source
    inside = tmp_path / "schrodinger.py"
    inside.write_text(source.replace(anchor, "    import scipy.linalg\n" + anchor))
    assert _scipy_imports(inside) == [("schrodinger.py", "dense_eigensystem", "scipy.linalg")]
    top = tmp_path / "reconstruction.py"
    top.write_text("from scipy.sparse.linalg import lobpcg\n" + (SRC / "reconstruction.py").read_text())
    assert _scipy_imports(top) == [("reconstruction.py", None, "scipy.sparse.linalg")]


def _grid_errors_raised(path: Path) -> list[str]:
    """Each place the file constructs or raises GridMismatchError."""
    found = []
    for child, function in _nodes_with_function(path):
        if isinstance(child, ast.Call):
            target = child.func
        elif isinstance(child, ast.Raise):
            target = child.exc  # a bare ``raise GridMismatchError``
        else:
            continue
        name = getattr(target, "id", getattr(target, "attr", None))
        if name == "GridMismatchError":
            found.append(f"{path.name}:{child.lineno} in {function}")
    return found


def test_grid_errors_only_from_the_grid_check():
    found = [
        hit for path in sorted(SRC.glob("*.py")) if path.name != "grids.py"
        for hit in _grid_errors_raised(path)
    ]
    assert not found, found


def test_grid_error_guard_flags_a_mutated_copy(tmp_path):
    source = (SRC / "maxwell.py").read_text()
    anchor = "    check_same_grid(grid, rho)\n"
    assert anchor in source
    mutated = tmp_path / "maxwell.py"
    inline = "    if rho.grid != grid:\n        raise errors.GridMismatchError('rho')\n"
    mutated.write_text(source.replace(anchor, inline, 1))
    assert len(_grid_errors_raised(mutated)) == 1
    mutated.write_text(source.replace(anchor, "    raise GridMismatchError\n", 1))
    assert len(_grid_errors_raised(mutated)) == 1


def _cgls_calls(path: Path) -> list[tuple[str, str | None]]:
    """(file, enclosing function) of each call of normal_equations_cg."""
    return [
        (path.name, function)
        for child, function in _nodes_with_function(path)
        if isinstance(child, ast.Call)
        and getattr(child.func, "id", getattr(child.func, "attr", None)) == "normal_equations_cg"
    ]


# CGLS serves the Cayley step alone. The elliptic solve inverts the negative
# spectrum of H and runs CG on the rest for every potential; a CGLS path for
# indefinite potentials stalled on a 2048-point grid.
def test_normal_equations_only_in_the_cayley_step():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in _cgls_calls(path)]
    assert found == [("schrodinger.py", "crank_nicolson_step")], found


def test_cgls_guard_flags_a_mutated_copy(tmp_path):
    source = (SRC / "reconstruction.py").read_text()
    anchor = "    sol = solve(-rhs.values)  # H C = -rhs\n"
    assert anchor in source
    mutated = tmp_path / "reconstruction.py"
    fork = "    if v.min() < 0:\n        sol = linsolve.normal_equations_cg(apply_h, apply_h, b)\n"
    mutated.write_text(source.replace(anchor, anchor + fork))
    assert _cgls_calls(mutated) == [("reconstruction.py", "solve_elliptic")]
