"""Normal structure: radicals, socles, composition factors, nonsolvable length."""

import pytest

from anaburnside.engine import (
    alternating,
    as_indexed,
    composition_report,
    conjugacy_classes,
    cyclic,
    dihedral,
    direct_product,
    is_anabelian,
    is_semisimple,
    is_solvable,
    minimal_normal_subgroups,
    nonsolvable_length,
    psl2_group,
    simple_name,
    socle,
    solvable_radical,
    subgroup_closure,
    symmetric,
    verify_series_lambda,
    wreath,
)

from groupfiles import sl25_group


def test_subgroup_closure():
    gi = as_indexed(symmetric(4))
    i3 = next(i for i in range(gi.n) if gi.order_of(i) == 3)
    assert len(subgroup_closure(gi, [i3])) == 3
    assert subgroup_closure(gi, [i3], cap=2) is None
    assert len(subgroup_closure(gi, list(gi.generator_indices))) == 24


def test_conjugacy_classes():
    gi = as_indexed(symmetric(4))
    sizes = sorted(len(c) for c in conjugacy_classes(gi))
    assert sizes == [1, 3, 6, 6, 8]
    gi5 = as_indexed(alternating(5))
    sizes5 = sorted(len(c) for c in conjugacy_classes(gi5))
    assert sizes5 == [1, 12, 12, 15, 20]


def test_minimal_normal_subgroups():
    s4 = as_indexed(symmetric(4))
    minimals = minimal_normal_subgroups(s4)
    assert [len(m) for m in minimals] == [4]
    a5a5 = as_indexed(direct_product([alternating(5), alternating(5)]))
    minimals = minimal_normal_subgroups(a5a5)
    assert sorted(len(m) for m in minimals) == [60, 60]
    a5 = as_indexed(alternating(5))
    assert [len(m) for m in minimal_normal_subgroups(a5)] == [60]


def test_solvable_radical():
    s4 = as_indexed(symmetric(4))
    assert len(solvable_radical(s4)) == 24
    a5 = as_indexed(alternating(5))
    assert len(solvable_radical(a5)) == 1
    g = as_indexed(direct_product([alternating(5), symmetric(3)]))
    assert len(solvable_radical(g)) == 6


def test_socle():
    s4 = as_indexed(symmetric(4))
    soc, _ = socle(s4)
    assert len(soc) == 4
    g = as_indexed(direct_product([alternating(5), cyclic(7)]))
    soc, _ = socle(g)
    assert len(soc) == 420


def test_is_solvable():
    assert is_solvable(as_indexed(symmetric(4)))
    assert is_solvable(as_indexed(dihedral(8)))
    assert not is_solvable(as_indexed(alternating(5)))
    assert not is_solvable(sl25_group())


def test_simple_name():
    assert simple_name(60) == "Alt(5)"
    assert simple_name(168) == "PSL(2,7)"
    assert simple_name(360) == "Alt(6)"
    assert simple_name(504) == "PSL(2,8)"
    assert simple_name(20160) == "Alt(8) or PSL(3,4)"
    assert simple_name(100) == "simple of order 100"


def test_composition_report_orders_multiply():
    for g in (symmetric(4), alternating(5), psl2_group(7),
              direct_product([alternating(5), cyclic(6)])):
        gi = as_indexed(g)
        rep = composition_report(gi)
        prod = 1
        for o in rep.factor_orders():
            prod *= o
        assert prod == gi.order()


def test_composition_factors_named():
    rep = composition_report(as_indexed(symmetric(5)))
    assert sorted(f.name for f in rep.factors) == ["Alt(5)", "C_2"]
    rep = composition_report(sl25_group())
    assert sorted(f.name for f in rep.factors) == ["Alt(5)", "C_2"]
    rep = composition_report(as_indexed(direct_product(
        [alternating(5), alternating(6)])))
    assert sorted(f.name for f in rep.factors) == ["Alt(5)", "Alt(6)"]


def test_is_anabelian():
    assert is_anabelian(as_indexed(alternating(5)))
    assert is_anabelian(as_indexed(alternating(6)))
    assert is_anabelian(as_indexed(direct_product(
        [alternating(5), alternating(5)])))
    assert not is_anabelian(as_indexed(symmetric(5)))
    assert not is_anabelian(sl25_group())
    assert not is_anabelian(as_indexed(direct_product(
        [cyclic(2), alternating(5)])))
    assert not is_anabelian(as_indexed(cyclic(3)))


def test_is_semisimple():
    assert is_semisimple(as_indexed(alternating(5)))
    assert is_semisimple(as_indexed(direct_product(
        [alternating(5), psl2_group(7)])))
    assert not is_semisimple(as_indexed(symmetric(5)))
    assert not is_semisimple(sl25_group())


def test_nonsolvable_length_zero_and_one():
    assert nonsolvable_length(as_indexed(symmetric(4))).value == 0
    assert nonsolvable_length(as_indexed(cyclic(12))).value == 0
    r = nonsolvable_length(as_indexed(alternating(5)))
    assert (r.value, r.exact) == (1, True)
    assert nonsolvable_length(as_indexed(symmetric(5))).value == 1
    assert nonsolvable_length(sl25_group()).value == 1
    assert nonsolvable_length(as_indexed(direct_product(
        [alternating(5), alternating(6)]))).value == 1


def test_nonsolvable_length_wreath_by_cyclic():
    # Semisimple base Alt(5) x Alt(5), solvable top C_2: one layer suffices.
    w = wreath(alternating(5), cyclic(2))
    r = nonsolvable_length(w)
    assert r.value == 1
    assert not is_anabelian(as_indexed(w, cap=8000))


def test_verify_series_lambda():
    w = wreath(alternating(5), alternating(5))
    rep = verify_series_lambda(w, ["trivial", "block_kernel:5", "full"])
    assert rep.value == 2
    assert not rep.exact
    kinds = [f.kind for f in rep.factors]
    assert kinds == ["semisimple", "semisimple"]
    assert all(f.nonsolvable for f in rep.factors)


def test_verify_series_rejects_bad_chain():
    w = wreath(alternating(5), alternating(5))
    with pytest.raises(ValueError):
        verify_series_lambda(w, ["trivial", "full", "block_kernel:5"])
    with pytest.raises(ValueError):
        verify_series_lambda(w, ["block_kernel:5", "full"])


def test_lambda_report_factors():
    r = nonsolvable_length(as_indexed(symmetric(5)))
    assert r.value == 1
    assert any(f.nonsolvable for f in r.factors)
    assert all(f.order > 1 for f in r.factors)
