"""Metamorphic relations of the whole time loop: symmetries of the
equations that the discrete scheme keeps, checked on full runs of each
preset (16^2, t = 0.5). They catch orientation and index errors at any
grid size, on non-square domains, with wall traces and in the records,
where the small-grid oracles cannot look. A defect in an operator that
u and v share keeps both symmetries; the 4x5 oracles catch those.

- d -> -d: the energy and the equations are even in d, and every
  operation of the scheme is odd or even in d exactly, so rho, v, the
  pressure and every record are bitwise unchanged and d is negated
  bitwise.
- Transpose x <-> y on a square grid (u <-> v, d1 <-> d2): the fields
  agree with the transposed ones to round-off.
- Mirror x -> 1 - x on a grid with Lx != Ly (u and d1 negated): the
  fields agree with the mirrored ones to round-off.

Records are compared column by column against the column's largest
magnitude: near-zero entries of a column carry the round-off of its
large ones.
"""

import dataclasses
import re

import numpy as np
import pytest

from nlcflow.diagnostics import FIELD_ORDER
from nlcflow.runner import PRESETS, preset_config, run

TOL = 1e-11


def _run(cfg):
    result = run(cfg, write_outputs=False)
    s = result.final
    fields = dict(rho=s.rho.values, u=s.v.u, v=s.v.v, d1=s.d.d1, d2=s.d.d2,
                  q=s.pressure.values)
    records = np.array([[getattr(r, k) for k in FIELD_ORDER]
                        for r in result.records])
    return fields, records


def _config(preset, **overrides):
    return preset_config(preset, nx=16, ny=16, t_end=0.5, record_every=10,
                         **overrides)


def _substitute(text, mapping):
    """The expression with each x and y replaced at once by mapping's
    text."""
    return re.sub(r"\b[xy]\b", lambda m: f"({mapping[m.group()]})", text)


def _negated_director(cfg):
    return dataclasses.replace(cfg, d0x=f"-({cfg.d0x})", d0y=f"-({cfg.d0y})")


def _transposed(cfg):
    """x <-> y: scalars composed with the swap, vector components
    swapped, and the grid transposed."""
    def sw(e):
        return _substitute(e, {"x": "y", "y": "x"})

    f = cfg.forcing
    return dataclasses.replace(
        cfg, nx=cfg.ny, ny=cfg.nx, Lx=cfg.Ly, Ly=cfg.Lx, rho0=sw(cfg.rho0),
        v0x=sw(cfg.v0y), v0y=sw(cfg.v0x), d0x=sw(cfg.d0y), d0y=sw(cfg.d0x),
        forcing=dataclasses.replace(f, phi=sw(f.phi), ax=sw(f.ay),
                                    ay=sw(f.ax)))


def _mirrored(cfg):
    """x -> Lx - x: scalars composed with the mirror, vectors' x
    components negated."""
    def m(e):
        return _substitute(e, {"x": f"{cfg.Lx!r} - x", "y": "y"})

    def neg(e):
        return f"-({m(e)})"

    f = cfg.forcing
    return dataclasses.replace(
        cfg, rho0=m(cfg.rho0), v0x=neg(cfg.v0x), v0y=m(cfg.v0y),
        d0x=neg(cfg.d0x), d0y=m(cfg.d0y),
        forcing=dataclasses.replace(f, phi=m(f.phi), ax=neg(f.ax),
                                    ay=m(f.ay)))


def _assert_records_agree(got, want):
    # column by column, against the column's largest magnitude; div_v_inf
    # is itself round-off, left by the cancellation of velocity
    # derivatives, so its scale is theirs, grad_v_L2's
    scale = np.abs(want).max(axis=0)
    scale[FIELD_ORDER.index("div_v_inf")] = \
        scale[FIELD_ORDER.index("grad_v_L2")]
    diff = np.abs(got - want).max(axis=0)
    bad = {k: (d, s) for k, d, s in zip(FIELD_ORDER, diff, scale)
           if not d <= TOL * s}
    assert got.shape == want.shape and not bad, bad


def _assert_fields_agree(got, want):
    # each field against its largest magnitude
    err = {k: np.abs(got[k] - want[k]).max() / np.abs(want[k]).max()
           for k in want}
    assert max(err.values()) <= TOL, err


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_negating_the_director_negates_d_and_keeps_the_rest_bitwise(preset):
    cfg = _config(preset)
    fields, records = _run(cfg)
    neg, neg_records = _run(_negated_director(cfg))
    for k in ("rho", "u", "v", "q"):
        assert neg[k].tobytes() == fields[k].tobytes(), k
    for k in ("d1", "d2"):
        assert neg[k].tobytes() == (-fields[k]).tobytes(), k
    assert neg_records.tobytes() == records.tobytes()


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_transposing_the_data_transposes_the_run(preset):
    cfg = _config(preset)
    f, records = _run(cfg)
    got, got_records = _run(_transposed(cfg))
    _assert_fields_agree(got, dict(rho=f["rho"].T, u=f["v"].T, v=f["u"].T,
                                   d1=f["d2"].T, d2=f["d1"].T, q=f["q"].T))
    _assert_records_agree(got_records, records)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_mirroring_the_data_mirrors_the_run(preset):
    # Ly = 1.5, so hx != hy, and the presets' director data leave a
    # non-constant trace on the north wall: the stationary solve iterates
    cfg = _config(preset, Ly=1.5)
    f, records = _run(cfg)
    got, got_records = _run(_mirrored(cfg))
    _assert_fields_agree(got, dict(rho=f["rho"][::-1], u=-f["u"][::-1],
                                   v=f["v"][::-1], d1=-f["d1"][::-1],
                                   d2=f["d2"][::-1], q=f["q"][::-1]))
    _assert_records_agree(got_records, records)
