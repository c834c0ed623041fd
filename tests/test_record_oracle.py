"""Wave records checked entry by entry against an independent sympy model.

A record stores one root and a Gaussian-rational vector: its entry i is
vec[i] * sqrt(root).  The spinor builder reaches that form through the
identity sqrt(p0 - mc) = |p| / |p0 + mc| * sqrt(p0 + mc).  The model here
does not use it: it writes each amplitude from the state's labels with one
sympy square root per factor, as the bispinor formula reads,

    u = (1 / sqrt(2 p0)) (1 / sqrt(z^dagger z)) (sqrt(p0 + mc) z, sqrt(p0 - mc) (n.sigma) z)

(blocks swapped on the negative branch), with the package's branch rule:
the square root of a negative radicand is -i sqrt(|x|) for the bispinor
radicals and for sqrt(1 / (2 p0)), which is the principal 1 / sqrt(2 p0).
The photon model is (0, l, 0, n x l) / sqrt(2 |l|^2).  Each difference must
simplify to exactly 0.  The tie holds at the drawn states only; sympy is a
test-only dependency and csym never imports it.
"""

from dataclasses import replace

import numpy as np
import pytest
import sympy

from csym.report import _random_photon, random_spinor

I = sympy.I


def _q(x):
    return sympy.Rational(x.numerator, x.denominator)


def _c(z):
    """An ExactComplex as a sympy number."""
    return _q(z.re) + I * _q(z.im)


def _sqrt(x, branch=-I):
    """sqrt(x) of a rational; a negative radicand takes branch * sqrt(|x|)."""
    return sympy.sqrt(x) if x >= 0 else branch * sympy.sqrt(-x)


def _spinor_model(st, branch=-I):
    p0, mc = _q(st.p0), _q(st.mc)
    p = [_q(x) for x in st.p]
    p_abs = _q(st.p_abs)
    n = [x / p_abs for x in p] if p_abs else [0, 0, 1]
    z0, z1 = (_c(x) for x in st.z)
    nsz = [st.sigma_sign * (n[2] * z0 + (n[0] - I * n[1]) * z1),
           st.sigma_sign * ((n[0] + I * n[1]) * z0 - n[2] * z1)]
    radp, radm = _sqrt(p0 + mc, branch), _sqrt(p0 - mc, branch)
    upper, lower = [radp * z0, radp * z1], [radm * x for x in nsz]
    factor = _sqrt(1 / (2 * p0)) / sympy.sqrt(_q(st.s))
    return [factor * u for u in (upper + lower if st.branch == 1 else lower + upper)]


def _photon_model(st):
    w = st.wave
    n, l = [_q(x) for x in w.n], [_q(x) for x in w.l]
    m = [n[1] * l[2] - n[2] * l[1], n[2] * l[0] - n[0] * l[2], n[0] * l[1] - n[1] * l[0]]
    norm = 1 / sympy.sqrt(2 * sum(x * x for x in l))
    return [0, *(norm * x for x in l), 0, *(norm * x for x in m)]


def _differences(rec, model):
    """model[i] - vec[i] * sqrt(root) for every entry, simplified."""
    root = sympy.sqrt(rec.root)
    assert len(model) == len(rec.vec)
    return [sympy.simplify(want - _c(v) * root) for want, v in zip(model, rec.vec)]


def _spinor_states():
    """20 drawn states at seed 0, 10 per branch, each on both c signs.

    The c = -1 copy is the state that light-speed inversion rebuilds: c,
    hbar, sigma and the 3-momentum flipped.
    """
    rng = np.random.default_rng(0)
    for k in range(20):
        st = random_spinor(rng, branch=1 if k % 2 == 0 else -1)
        yield st
        yield replace(st, p=tuple(-x for x in st.p), c_sign=-1, hbar_sign=-1, sigma_sign=-1)


SPINORS = list(_spinor_states())


def test_the_draws_cover_both_branches_c_signs_and_the_rest_frame():
    assert {(st.branch, st.c_sign) for st in SPINORS} == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    assert len(SPINORS) == 40 and any(st.p_abs == 0 for st in SPINORS)
    assert any(st.record().root != 1 for st in SPINORS)


@pytest.mark.parametrize("k", range(len(SPINORS)))
def test_spinor_record_equals_the_model(k):
    st = SPINORS[k]
    assert _differences(st.record(), _spinor_model(st)) == [0] * 4


def test_the_model_rejects_the_principal_bispinor_branch():
    """With +i for sqrt(p0 +- mc), every c = -1 record differs by a global sign."""
    for st in SPINORS:
        diffs = _differences(st.record(), _spinor_model(st, branch=I))
        assert (diffs == [0] * 4) == (st.c_sign == 1)


_photon_rng = np.random.default_rng(0)
PHOTONS = [_random_photon(_photon_rng) for _ in range(20)]


@pytest.mark.parametrize("k", range(len(PHOTONS)))
def test_photon_record_equals_the_model(k):
    st = PHOTONS[k]
    assert _differences(st.record(), _photon_model(st)) == [0] * 8
