"""Morphism layer: composition, tensor, dagger, swap, and their laws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rel_oracle as oracle
from projlat import (
    BackendMismatch,
    CompositionTypeError,
    Tolerance,
    compose,
    dagger,
    equal,
    fhilb_morphism,
    fhilb_object,
    identity,
    rel_morphism,
    rel_object,
    related_pairs,
    residual,
    swap,
    tensor,
    tensor_objects,
    unit_object,
    zero_morphism,
)


def rel_pairs(dom: int, cod: int):
    return st.frozensets(
        st.tuples(st.integers(0, dom - 1), st.integers(0, cod - 1)), max_size=dom * cod
    )


@st.composite
def rel_arrow(draw, dom: int, cod: int):
    return rel_morphism(rel_object(dom), rel_object(cod), draw(rel_pairs(dom, cod)))


@st.composite
def fhilb_arrow(draw, dom: int, cod: int):
    ints = st.integers(-3, 3)
    grid = draw(
        st.lists(
            st.lists(st.tuples(ints, ints), min_size=dom, max_size=dom),
            min_size=cod,
            max_size=cod,
        )
    )
    mat = np.array([[complex(re, im) for re, im in row] for row in grid])
    return fhilb_morphism(fhilb_object(dom), fhilb_object(cod), mat)


# -- shapes and typing ------------------------------------------------------


def test_fhilb_payload_shape_is_cod_by_dom():
    f = fhilb_morphism(fhilb_object(3), fhilb_object(2), np.ones((2, 3)))
    assert f.payload.shape == (2, 3)
    with pytest.raises(CompositionTypeError):
        fhilb_morphism(fhilb_object(3), fhilb_object(2), np.ones((3, 2)))


def test_rel_pairs_are_dom_cod_indexed():
    f = rel_morphism(rel_object(2), rel_object(3), {(1, 2)})
    assert frozenset(related_pairs(f)) == frozenset({(1, 2)})
    with pytest.raises(CompositionTypeError):
        rel_morphism(rel_object(2), rel_object(3), {(2, 0)})
    with pytest.raises(CompositionTypeError):
        rel_morphism(rel_object(2), rel_object(3), {(0, 3)})


def test_compose_requires_matching_middle_object():
    f = fhilb_morphism(fhilb_object(2), fhilb_object(2), np.eye(2))
    g = fhilb_morphism(fhilb_object(3), fhilb_object(3), np.eye(3))
    with pytest.raises(CompositionTypeError):
        compose(f, g)


def test_mixed_backends_rejected():
    f = fhilb_morphism(fhilb_object(2), fhilb_object(2), np.eye(2))
    g = rel_morphism(rel_object(2), rel_object(2), {(0, 0)})
    with pytest.raises(BackendMismatch):
        compose(f, g)
    with pytest.raises(BackendMismatch):
        tensor(f, g)
    with pytest.raises(BackendMismatch):
        tensor_objects(fhilb_object(2), rel_object(2))


def test_compose_is_f_after_g():
    # g: 1 -> 2 picks index 1, f: 2 -> 2 swaps; composite picks index 0
    g = rel_morphism(rel_object(1), rel_object(2), {(0, 1)})
    f = rel_morphism(rel_object(2), rel_object(2), {(0, 1), (1, 0)})
    assert frozenset(related_pairs(compose(f, g))) == frozenset({(0, 0)})

    a = fhilb_morphism(fhilb_object(2), fhilb_object(2), [[0, 1], [0, 0]])
    b = fhilb_morphism(fhilb_object(2), fhilb_object(2), [[0, 0], [1, 0]])
    assert np.array_equal(compose(a, b).payload, np.diag([1.0, 0.0]))
    assert np.array_equal(compose(b, a).payload, np.diag([0.0, 1.0]))


# -- monoidal structure -----------------------------------------------------


def test_tensor_index_pairing_is_row_major():
    # basis state i=1 of a 2-level with j=2 of a 3-level lands at 1*3+2 = 5
    p = rel_morphism(rel_object(1), rel_object(2), {(0, 1)})
    q = rel_morphism(rel_object(1), rel_object(3), {(0, 2)})
    assert frozenset(related_pairs(tensor(p, q))) == frozenset({(0, 5)})

    u = fhilb_morphism(fhilb_object(1), fhilb_object(2), [[0], [1]])
    v = fhilb_morphism(fhilb_object(1), fhilb_object(3), [[0], [0], [1]])
    out = tensor(u, v).payload[:, 0]
    assert np.array_equal(out, np.eye(6)[5])


def test_swap_table_small():
    s = swap(rel_object(2), rel_object(3))
    want = {(i * 3 + j, j * 2 + i) for i in range(2) for j in range(3)}
    assert frozenset(related_pairs(s)) == frozenset(want)
    sf = swap(fhilb_object(2), fhilb_object(2))
    assert np.array_equal(
        sf.payload,
        np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
    )


def test_unit_object_is_strict():
    a = rel_object(5)
    assert tensor_objects(unit_object("rel"), a).size == 5
    assert tensor_objects(a, unit_object("rel")).size == 5
    f = rel_morphism(a, a, {(1, 3)})
    assert equal(tensor(identity(unit_object("rel")), f), f)
    assert equal(tensor(f, identity(unit_object("rel"))), f)


def test_swap_self_inverse():
    a, b = fhilb_object(2), fhilb_object(3)
    assert equal(compose(swap(b, a), swap(a, b)), identity(tensor_objects(a, b)))
    ra, rb = rel_object(3), rel_object(4)
    assert equal(compose(swap(rb, ra), swap(ra, rb)), identity(tensor_objects(ra, rb)))


def test_zero_morphism_annihilates():
    a = fhilb_object(2)
    z = zero_morphism(a, a)
    f = fhilb_morphism(a, a, [[1, 2], [3, 4]])
    assert equal(compose(z, f), z)
    assert equal(compose(f, z), z)
    assert residual(tensor(z, f), zero_morphism(tensor_objects(a, a), tensor_objects(a, a))) == 0


# -- residuals --------------------------------------------------------------


def test_residual_fhilb_is_max_entry_gap():
    a = fhilb_object(2)
    f = fhilb_morphism(a, a, [[0, 0], [0, 0]])
    g = fhilb_morphism(a, a, [[0, 3e-4], [0, 0]])
    assert residual(f, g) == pytest.approx(3e-4)
    assert not equal(f, g)
    assert equal(f, g, Tolerance(1e-3))


def test_residual_rel_counts_symmetric_difference():
    a = rel_object(3)
    f = rel_morphism(a, a, {(0, 0), (1, 1)})
    g = rel_morphism(a, a, {(1, 1), (2, 2)})
    assert residual(f, g) == 2.0
    # rel comparison is exact regardless of tolerance
    assert not equal(f, g, Tolerance(10.0))


# -- algebraic laws, property-based -----------------------------------------


@settings(deadline=None, max_examples=60)
@given(rel_arrow(3, 2), rel_arrow(2, 3), rel_arrow(4, 2))
def test_rel_laws(f, g, h):
    # dagger is involutive and contravariant
    assert equal(dagger(dagger(f)), f)
    assert equal(dagger(compose(f, g)), compose(dagger(g), dagger(f)))
    # identities are neutral
    assert equal(compose(identity(f.cod), f), f)
    assert equal(compose(f, identity(f.dom)), f)
    # bifunctoriality
    lhs = tensor(compose(f, g), compose(f, g))
    rhs = compose(tensor(f, f), tensor(g, g))
    assert equal(lhs, rhs)
    # swap naturality
    sw_dom = swap(f.dom, h.dom)
    sw_cod = swap(f.cod, h.cod)
    assert equal(compose(sw_cod, tensor(f, h)), compose(tensor(h, f), sw_dom))


@settings(deadline=None, max_examples=40)
@given(fhilb_arrow(2, 2), fhilb_arrow(2, 2), fhilb_arrow(3, 2))
def test_fhilb_laws(f, g, h):
    assert equal(dagger(dagger(f)), f)
    assert equal(dagger(compose(f, g)), compose(dagger(g), dagger(f)))
    assert equal(compose(f, identity(f.dom)), f)
    lhs = tensor(compose(f, g), compose(f, g))
    rhs = compose(tensor(f, f), tensor(g, g))
    assert equal(lhs, rhs)
    sw_dom = swap(f.dom, h.dom)
    sw_cod = swap(f.cod, h.cod)
    assert equal(compose(sw_cod, tensor(f, h)), compose(tensor(h, f), sw_dom))


@settings(deadline=None, max_examples=30)
@given(fhilb_arrow(3, 3))
def test_dagger_preserves_residual_scale(f):
    # unitary conjugation preserves max-entry scale up to dimension factors
    assert residual(f, f) == 0.0
    assert residual(dagger(f), dagger(f)) == 0.0


# -- rel arrays against the pair-set oracle ---------------------------------


def _pairs(f) -> frozenset:
    return frozenset(related_pairs(f))


def _rel_carrier(size: int):
    """Carriers 0-6; size 1 is the monoidal unit itself."""
    return unit_object("rel") if size == 1 else rel_object(size)


@st.composite
def pair_sets(draw, dom: int, cod: int):
    if dom == 0 or cod == 0:
        return frozenset()
    return draw(rel_pairs(dom, cod))


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_rel_arrays_match_pair_set_oracle(data):
    a, b, c = (data.draw(st.integers(0, 6), label=f"size{n}") for n in range(3))
    f, h = data.draw(pair_sets(a, b), label="f"), data.draw(pair_sets(a, b), label="h")
    g, k = data.draw(pair_sets(c, a), label="g"), data.draw(pair_sets(b, c), label="k")
    A, B, C = _rel_carrier(a), _rel_carrier(b), _rel_carrier(c)
    mf, mh, mg, mk = (
        rel_morphism(dom, cod, pairs)
        for dom, cod, pairs in ((A, B, f), (A, B, h), (C, A, g), (B, C, k))
    )
    assert _pairs(mf) == f
    assert _pairs(compose(mf, mg)) == oracle.compose(f, g)
    assert _pairs(tensor(mf, mk)) == oracle.tensor(f, k, b, c)
    assert _pairs(dagger(mf)) == oracle.dagger(f)
    assert residual(mf, mh) == oracle.residual(f, h)
    assert equal(mf, mh) == oracle.equal(f, h)
    assert (mf == mh) == oracle.equal(f, h)


@pytest.mark.parametrize("a", range(7))
@pytest.mark.parametrize("b", range(7))
def test_rel_constants_match_pair_set_oracle(a, b):
    A, B = _rel_carrier(a), _rel_carrier(b)
    assert _pairs(identity(A)) == oracle.identity(a)
    assert _pairs(swap(A, B)) == oracle.swap(a, b)
    assert _pairs(zero_morphism(A, B)) == oracle.zero()
    full = frozenset((i, j) for i in range(a) for j in range(b))
    everything = rel_morphism(A, B, full)
    assert _pairs(compose(dagger(everything), everything)) == oracle.compose(
        oracle.dagger(full), full
    )
    assert _pairs(tensor(everything, identity(B))) == oracle.tensor(
        full, oracle.identity(b), b, b
    )
    assert residual(everything, zero_morphism(A, B)) == oracle.residual(full, oracle.zero())
