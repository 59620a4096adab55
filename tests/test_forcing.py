import numpy as np
import pytest

from nlcflow.errors import ConfigError
from nlcflow.forcing import ForcingSpec, eval_force, force_l2, sample_forcing
from nlcflow.grid import GridSpec, MacVelocity, gradient_interior_faces, norms

_PHI = "0.002*cos(pi*x)*cos(pi*y)"
_F2 = ForcingSpec(variant="f2", ax="sin(pi*x)*sin(pi*y)", ay="0.3*x*(1-x)",
                  xi=1.5, amplitude=0.8)


@pytest.fixture
def grid():
    return GridSpec(64, 64, 1.0, 1.0)


def test_constant_potential_gives_zero_force(grid):
    spec = ForcingSpec(variant="f1", phi="3")
    g = eval_force(spec, grid, 0.0)
    assert norms(g, "Linf") == 0.0


@pytest.mark.parametrize("variant", ["none", "f1"])
def test_potential_force_is_one_cached_read_only_field(grid, variant):
    spec = ForcingSpec(variant=variant, phi=_PHI)
    g = eval_force(spec, grid, 0.0)
    assert eval_force(spec, grid, 7.5) is g
    phi = sample_forcing(spec, grid).phi
    want = (gradient_interior_faces(phi, grid) if variant == "f1"
            else MacVelocity.zeros(grid))
    assert g.u.tobytes() == want.u.tobytes()
    assert g.v.tobytes() == want.v.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        g.u[1, 1] = 0.0


def test_none_variant_gives_zero(grid):
    g = eval_force(ForcingSpec(variant="none"), grid, 5.0)
    assert norms(g, "Linf") == 0.0


def test_decaying_force_at_time_zero_is_profile(grid):
    spec = ForcingSpec(variant="f2", ax="sin(pi*x)*sin(pi*y)", ay="0",
                       xi=1.0, amplitude=1.0)
    g = eval_force(spec, grid, 0.0)
    Xu, Yu = grid.uface_coords()
    expect = np.sin(np.pi * Xu) * np.sin(np.pi * Yu)
    expect[0, :] = expect[-1, :] = 0.0
    assert np.array_equal(g.u, expect)
    assert np.abs(g.v).max() == 0.0


def test_decaying_force_is_a_fresh_scaled_profile(grid):
    a = sample_forcing(_F2, grid).a
    for t in (0.7, 3.0):
        g = eval_force(_F2, grid, t)
        s = 0.8 * (1.0 + t) ** (-(2.0 + 1.5) / 2.0)
        assert g.u.flags.writeable and g.v.flags.writeable
        assert g.u.tobytes() == (s * a.u).tobytes()
        assert g.v.tobytes() == (s * a.v).tobytes()


@pytest.mark.parametrize("spec", [ForcingSpec(variant="none"),
                                  ForcingSpec(variant="f1", phi=_PHI), _F2],
                         ids=["none", "f1", "f2"])
def test_force_l2_is_the_norm_of_the_force(grid, spec):
    for t in (0.0, 0.7, 3.0):
        assert force_l2(spec, grid, t) == pytest.approx(
            norms(eval_force(spec, grid, t), "L2"), rel=1e-15, abs=0.0)


def test_decay_slope_matches_exponent(grid):
    spec = ForcingSpec(variant="f2", ax="sin(pi*x)*sin(pi*y)", ay="0",
                       xi=1.0, amplitude=1.0)
    ts = np.linspace(1.0, 100.0, 40)
    vals = [norms(eval_force(spec, grid, t), "L2") ** 2 for t in ts]
    slope = np.polyfit(np.log(1 + ts), np.log(vals), 1)[0]
    assert slope == pytest.approx(-(2 + spec.xi), rel=0.01)


def test_nonpositive_xi_rejected():
    with pytest.raises(ConfigError):
        ForcingSpec(variant="f2", ax="1", ay="0", xi=0.0)


def test_expression_grammar_rejects_escape(tmp_path):
    from nlcflow.expressions import parse_expression
    marker = tmp_path / "f"
    # a class whose __init__ globals hold os.system: a real escape route
    i = next(k for k, c in enumerate(object.__subclasses__())
             if "system" in getattr(c.__init__, "__globals__", {}))
    escape = ("().__class__.__base__.__subclasses__()"
              f"[{i}].__init__.__globals__['system']('touch {marker}')")
    for text in ["__import__('os')", "exp(x)", "z + 1", "(lambda: 1)()",
                 "[1][0]*x", "x if 1 else y", "x**y", "x.real", "sin(x=1)",
                 "sin(x, y)", "True*x", "1j*x", "'a'",
                 "[x for x in (1, 2)]", escape,
                 # too deep for the walker; too large for a float
                 "-" * 1000 + "x", "1" + "0" * 400]:
        with pytest.raises(ConfigError):
            parse_expression(text)
    assert not marker.exists()


def test_expression_grammar_accepts_documented_forms():
    from nlcflow.expressions import parse_expression
    f = parse_expression("1.5 + 0.3*sin(2*pi*x)*cos(pi*y) - x**2/4")
    x, y = 0.3, 0.7
    expected = 1.5 + 0.3 * np.sin(2 * np.pi * x) * np.cos(np.pi * y) \
        - x**2 / 4
    assert f(x, y) == pytest.approx(expected, rel=1e-15)
    for text, value in [("-x", -x), ("2**-1", 0.5), ("x**2/4", x**2 / 4),
                        ("-(-x)", x), ("+y - -x", y + x),
                        ("x**(2*pi)", x ** (2 * np.pi))]:
        assert parse_expression(text)(x, y) == pytest.approx(value,
                                                             rel=1e-15)


def _theta(x, y):
    # the wall-trace pattern theta = 0.5*pi*x*y of the benchmark's f2 workload
    return 0.5 * np.pi * x * y + 0.2 * np.sin(np.pi * x) * np.sin(np.pi * y)


_THETA = "0.5*pi*x*y + 0.2*sin(pi*x)*sin(pi*y)"
_BY_HAND = {
    "0": lambda x, y: 0.0 * x,
    "1.5 + 0.3*sin(2*pi*x)*sin(2*pi*y)":
        lambda x, y: 1.5 + 0.3 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y),
    "1.5 + 0.3*cos(pi*x)*cos(pi*y)":
        lambda x, y: 1.5 + 0.3 * np.cos(np.pi * x) * np.cos(np.pi * y),
    "0.2*sin(pi*x)*sin(pi*x)*sin(2*pi*y)":
        lambda x, y: 0.2 * np.sin(np.pi * x)**2 * np.sin(2 * np.pi * y),
    "-0.2*sin(2*pi*x)*sin(pi*y)*sin(pi*y)":
        lambda x, y: -0.2 * np.sin(2 * np.pi * x) * np.sin(np.pi * y)**2,
    "cos(0.4*sin(pi*x)*sin(pi*y))":
        lambda x, y: np.cos(0.4 * np.sin(np.pi * x) * np.sin(np.pi * y)),
    "sin(0.4*sin(pi*x)*sin(pi*y))":
        lambda x, y: np.sin(0.4 * np.sin(np.pi * x) * np.sin(np.pi * y)),
    "0.002*cos(pi*x)*cos(pi*y)":
        lambda x, y: 0.002 * np.cos(np.pi * x) * np.cos(np.pi * y),
    "0.2*sin(pi*x)*sin(pi*y)":
        lambda x, y: 0.2 * np.sin(np.pi * x) * np.sin(np.pi * y),
    "-0.2*sin(pi*y)*sin(pi*x)":
        lambda x, y: -0.2 * np.sin(np.pi * y) * np.sin(np.pi * x),
    f"cos({_THETA})": lambda x, y: np.cos(_theta(x, y)),
    f"sin({_THETA})": lambda x, y: np.sin(_theta(x, y)),
}


def test_expression_grammar_matches_numpy_on_every_preset():
    from nlcflow.expressions import parse_expression
    from nlcflow.runner import PRESETS
    texts = set()
    for preset in PRESETS.values():
        texts |= {v for v in preset.values() if isinstance(v, str)}
        f = preset["forcing"]
        texts |= {f.phi, f.ax, f.ay}
    assert texts <= set(_BY_HAND)
    X, Y = GridSpec(16, 12, 1.0, 1.0).cell_centers()
    for text, by_hand in _BY_HAND.items():
        np.testing.assert_allclose(parse_expression(text)(X, Y),
                                   by_hand(X, Y), rtol=1e-15, atol=0.0,
                                   err_msg=text)


def test_expression_constants_give_fresh_grid_arrays():
    from nlcflow.expressions import parse_expression
    X, Y = GridSpec(16, 12, 1.0, 1.0).cell_centers()
    for text, value in [("1.5", 1.5), ("0", 0.0), ("x", X)]:
        out = parse_expression(text)(X, Y)
        assert out.shape == X.shape and out.dtype == np.float64
        assert out.flags.writeable and not np.shares_memory(out, X)
        np.testing.assert_array_equal(out, np.broadcast_to(value, X.shape))
        out[0, 0] = -1.0  # writing must not touch the inputs
    assert X[0, 0] != -1.0
