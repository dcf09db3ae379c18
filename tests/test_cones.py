"""Catalog-level counts h^1 and h^2 of T_Y (x) L^m, verdicts and assemblies."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from conedef.cli import main
from conedef.cones import (
    CATALOG,
    BlownUpPlane,
    OutOfScopeError,
    ProductPolarization,
    RationalNormalCurve,
    SegreQuadric,
    Variety,
    VeroneseSpace,
    corollary_flags,
    pinkham_assembly,
    rigidity_verdict,
    t1_table,
    t1_weight,
    t2_table,
    t2_weight,
    weight_zero_criterion,
)
from conedef.delpezzo import delpezzo_certificate
from conedef.projective import MAX_COST, OverBudgetError, RequestError
from conedef.p1 import h_dim

from oracles import bidegree_h1_enumerated, bott_hq_omega, line_h1_enumerated


# ---- h^1(T_Y (x) L^m) --------------------------------------------------


@pytest.mark.parametrize("d", range(1, 13))
@pytest.mark.parametrize("m", range(-6, 4))
def test_rnc_weights_match_independent_enumeration(d, m):
    assert t1_weight(VeroneseSpace(1, d), m) == line_h1_enumerated(2 + d * m)


def test_rnc_spot_values():
    assert t1_weight(VeroneseSpace(1, 4), -1) == 1
    assert t1_weight(VeroneseSpace(1, 4), -2) == 5
    assert t1_weight(VeroneseSpace(1, 3), -2) == 3
    assert t1_weight(VeroneseSpace(1, 4), 0) == 0
    assert t1_weight(VeroneseSpace(1, 2), -2) == 1


def test_veronese_curve_case_reduces_to_line():
    for d in range(1, 5):
        for m in range(-4, 2):
            assert t1_weight(VeroneseSpace(1, d), m) == line_h1_enumerated(2 + d * m)


def test_veronese_plane_threshold():
    # frozen from the chase: only the cubic embedding carries a weight -1
    # contribution; see also the tangent-twist spot values
    values = {d: t1_weight(VeroneseSpace(2, d), -1) for d in range(1, 9)}
    assert values == {1: 0, 2: 0, 3: 1, 4: 0, 5: 0, 6: 0, 7: 0, 8: 0}


def test_veronese_higher_space_vanishes():
    for n in (3, 4):
        for m in range(-3, 2):
            assert t1_weight(VeroneseSpace(n, 2), m) == 0


def test_segre_kunneth_values():
    # the split tangent sheaf contributes exactly when m*d = -2
    v = ProductPolarization(1, 1)
    assert t1_weight(v, -2) == 2
    assert t1_weight(v, -1) == 0
    v2 = ProductPolarization(2, 2)
    assert t1_weight(v2, -1) == 2
    assert t1_weight(v2, -2) == 0
    v3 = ProductPolarization(3, 3)
    assert all(t1_weight(v3, m) == 0 for m in range(-6, 4))


@given(d=st.integers(1, 6), m=st.integers(-6, 2))
@settings(max_examples=80, deadline=None)
def test_segre_nonzero_iff_product_is_minus_two(d, m):
    value = t1_weight(ProductPolarization(d, d), m)
    if m * d == -2:
        assert value == 2
    else:
        assert value == 0


def test_product_polarization_asymmetric():
    # bidegree (1, 2): weight -1 hits the (0, -2) + (-2, ...) pattern
    v = ProductPolarization(1, 2)
    expected = bidegree_h1_enumerated(2 - 1, -2) + bidegree_h1_enumerated(-1, 2 - 2)
    assert t1_weight(v, -1) == expected == 2
    assert t1_weight(ProductPolarization(2, 2), -1) == 2
    # asymmetric polarizations can contribute in several weights
    assert t1_weight(ProductPolarization(1, 2), -2) == bidegree_h1_enumerated(0, -4) + bidegree_h1_enumerated(-2, -2)


def _oracle_h(v, q, m):
    """h^q(T_Y (x) L^m) by a route independent of the engine: Bott on
    n-space (the tangent sheaf is Omega^(n-1)(n+1)), enumeration on the
    line (the tangent sheaf is O(2), and a curve has no h^2), and Kunneth
    by enumeration on the product of two lines (T = O(2,0) + O(0,2))."""
    if isinstance(v, ProductPolarization):
        a, b = m * v.a, m * v.b
        if q == 1:
            return bidegree_h1_enumerated(2 + a, b) + bidegree_h1_enumerated(a, 2 + b)
        return line_h1_enumerated(2 + a) * line_h1_enumerated(b) + line_h1_enumerated(a) * line_h1_enumerated(2 + b)
    if v.n == 1:
        return line_h1_enumerated(2 + v.d * m) if q == 1 else 0
    return bott_hq_omega(v.n, v.n - 1, q, v.d * m + v.n + 1)


# every numeric entry with n, d, a, b <= 4 (and n = 5), at each order it
# computes, keyed by its descriptor and order
NUMERIC = {
    **{f"veronese:{n}:{d}-h{q}": (VeroneseSpace(n, d), q) for n in range(1, 6) for d in range(1, 5) for q in (1, 2) if q == 1 or n <= 2},
    **{f"product:{a}:{b}-h{q}": (ProductPolarization(a, b), q) for a in range(1, 5) for b in range(1, 5) for q in (1, 2)},
}


@pytest.mark.parametrize("v,q", NUMERIC.values(), ids=list(NUMERIC))
def test_counts_match_independent_oracles(v, q):
    count = t1_weight if q == 1 else t2_weight
    weights = range(-8, 4)
    assert [count(v, m) for m in weights] == [_oracle_h(v, q, m) for m in weights]


@pytest.mark.parametrize("v", [VeroneseSpace(1, 3), VeroneseSpace(2, 2), VeroneseSpace(3, 2), ProductPolarization(2, 2), BlownUpPlane(6)])
@pytest.mark.parametrize("q", [-1, 0, 3])
def test_h_refuses_any_order_but_one_and_two(v, q):
    with pytest.raises(ValueError, match=f"not h\\^{q}$"):
        v.h(q, -1)


@pytest.mark.parametrize(
    "make,values",
    [
        (VeroneseSpace, (True, 3)),
        (VeroneseSpace, (2.0, 3)),
        (VeroneseSpace, (2, "3")),
        (RationalNormalCurve, (0.5,)),
        (ProductPolarization, (1, 2.5)),
        (SegreQuadric, (False,)),
        (BlownUpPlane, (6.0,)),
    ],
)
def test_catalog_fields_must_be_ints(make, values):
    with pytest.raises(TypeError, match="must be an int, got"):
        make(*values)


@pytest.mark.parametrize("name", CATALOG)
def test_every_entry_states_the_catalog_protocol_itself(name):
    """Variety has no default count, rule or rigidity answer, so an entry
    that forgot one would end a command in an AttributeError traceback:
    each entry states h, rule and polarization_cohomology, and
    closed_form_rigidity unless it overrides certificate."""
    protocol = ("h", "rule", "polarization_cohomology", "closed_form_rigidity")
    assert not [m for m in protocol if m in vars(Variety)]
    make, fields = CATALOG[name]
    cls = type(make(*[1] * len(fields)))
    certified = cls.certificate is not Variety.certificate  # rigidity_verdict returns it before any closed form
    missing = [m for m in protocol if not hasattr(cls, m)]
    assert missing == (["closed_form_rigidity"] if certified else [])


def test_delpezzo_never_returns_bare_numbers():
    with pytest.raises(OutOfScopeError):
        t1_weight(BlownUpPlane(6), -1)
    with pytest.raises(OutOfScopeError):
        t2_weight(BlownUpPlane(6), -1)


def _out_of_range_fields():
    """(registry name, descriptor field index, entry class name, the class
    field it sets, its bound or None, value) for every field of every
    registry name at 0 and, where the entry bounds the field it sets, one
    above the bound.  The class field is the first one that moves with the
    descriptor field, so an alias maps to the field its entry's message
    names."""
    for name, (make, fields) in CATALOG.items():
        for i in range(len(fields)):
            twos = [1] * len(fields)
            twos[i] = 2
            a, b = make(*[1] * len(fields)), make(*twos)
            field = next(f for f in a._fields if getattr(a, f) != getattr(b, f))
            upper = type(a)._upper.get(field)
            for value in (0,) if upper is None else (0, upper + 1):
                yield name, i, type(a).__name__, field, upper, value


@pytest.mark.parametrize("name,i,cls,field,upper,value", list(_out_of_range_fields()))
def test_every_registry_field_out_of_range_is_refused(capsys, name, i, cls, field, upper, value):
    """Each field of each registry name, at 0 and one above a declared
    bound, is refused by the command line with exit 2, an empty stdout and
    one stderr line naming the class and the field, and by the constructor
    with a RequestError carrying the same message."""
    make, fields = CATALOG[name]
    values = [1] * len(fields)
    values[i] = value
    bound = "at least 1" if upper is None else f"between 1 and {upper}"
    message = f"{cls} field {field} must be {bound}, got {value}"
    descriptor = ":".join([name, *map(str, values)])
    assert main(["t1", descriptor]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: bad variety descriptor {descriptor!r}: {message}\n"
    with pytest.raises(RequestError, match=f"^{re.escape(message)}$"):
        make(*values)


# ---- tables ------------------------------------------------------------


def test_rnc_table_window():
    assert t1_table(VeroneseSpace(1, 4), -3, 1) == {-3: 9, -2: 5, -1: 1, 0: 0, 1: 0}


def test_segre_two_table():
    assert t1_table(ProductPolarization(2, 2), -4, 1) == {-4: 0, -3: 0, -2: 0, -1: 2, 0: 0, 1: 0}


def test_empty_window_rejected():
    """The priced window refuses an empty window for a table and a
    certificate, and rigidity_verdict asks the same rule, since a numeric
    verdict prices no window; an assembly's window must contain weight 0."""
    refused = (
        lambda: t1_table(VeroneseSpace(1, 3), 2, -2),
        lambda: t2_table(ProductPolarization(1, 2), 2, -2),
        lambda: delpezzo_certificate(6, 2, -2),
        lambda: rigidity_verdict(VeroneseSpace(1, 3), 2, -2),
        lambda: rigidity_verdict(BlownUpPlane(6), 2, -2),
    )
    for refuse in refused:
        with pytest.raises(ValueError, match="^weight window 2..-2 is empty$"):
            refuse()
    with pytest.raises(ValueError, match="^the assembly window must contain weight 0$"):
        pinkham_assembly(VeroneseSpace(1, 3), 2, -2)


# ---- h^2(T_Y (x) L^m) --------------------------------------------------


def test_t2_curves_vanish():
    for d in range(1, 8):
        for m in range(-4, 3):
            assert t2_weight(VeroneseSpace(1, d), m) == 0
    assert t2_weight(VeroneseSpace(1, 3), -2) == 0


def test_t2_plane_spot_values():
    # h^2 of the twisted tangent sheaf on the plane: dual section counts
    assert t2_weight(VeroneseSpace(2, 1), -2) == 0
    assert t2_weight(VeroneseSpace(2, 1), -3) == 0
    assert t2_weight(VeroneseSpace(2, 2), -3) == 8
    assert t2_weight(VeroneseSpace(2, 1), -6) == 8


def test_t2_quadric_by_weight():
    # near zero the obstruction space is empty; deeper twists fill it in
    assert t2_weight(ProductPolarization(2, 2), 0) == 0
    assert t2_weight(ProductPolarization(2, 2), -1) == 0
    assert t2_weight(ProductPolarization(2, 2), -2) == 2 * (
        line_h1_enumerated(-2) * line_h1_enumerated(-4)
    )
    assert t2_weight(ProductPolarization(1, 1), -4) == (
        line_h1_enumerated(-2) * line_h1_enumerated(-4)
        + line_h1_enumerated(-4) * line_h1_enumerated(-2)
    )


def test_t2_out_of_scope():
    with pytest.raises(OutOfScopeError):
        t2_weight(VeroneseSpace(3, 2), -1)
    assert t2_table(ProductPolarization(2, 2), -2, 0) == {-2: 6, -1: 0, 0: 0}


# ---- rigidity verdicts -------------------------------------------------


def test_rnc_always_flexible():
    for d in (1, 2, 3, 4, 5, 10):
        verdict = rigidity_verdict(VeroneseSpace(1, d))
        assert verdict.rigid is False
        assert verdict.window_independent
        w, dim = verdict.witness
        assert dim == max(0, -3 - d * w) > 0
        # no nonzero weight sits strictly between the witness and zero
        for m in range(w + 1, 1):
            assert t1_weight(VeroneseSpace(1, d), m) == 0


def test_rnc_witnesses():
    assert rigidity_verdict(VeroneseSpace(1, 2)).witness == (-2, 1)
    assert rigidity_verdict(VeroneseSpace(1, 3)).witness == (-2, 3)
    assert rigidity_verdict(VeroneseSpace(1, 4)).witness == (-1, 1)
    assert rigidity_verdict(VeroneseSpace(1, 5)).witness == (-1, 2)


def test_segre_verdicts():
    v1 = rigidity_verdict(ProductPolarization(1, 1))
    assert (v1.rigid, v1.witness) == (False, (-2, 2))
    v2 = rigidity_verdict(ProductPolarization(2, 2))
    assert (v2.rigid, v2.witness) == (False, (-1, 2))
    v3 = rigidity_verdict(ProductPolarization(3, 3))
    assert v3.rigid is True and v3.window_independent


def test_veronese_verdicts_hold_in_every_weight():
    cubic = rigidity_verdict(VeroneseSpace(2, 3))
    assert (cubic.rigid, cubic.witness, cubic.window_independent) == (False, (-1, 1), True)
    quartic = rigidity_verdict(VeroneseSpace(2, 4))
    assert (quartic.rigid, quartic.witness, quartic.window_independent) == (True, None, True)
    # Bott's spike at k = -3 is found for the plane itself outside the window
    assert rigidity_verdict(VeroneseSpace(2, 1), 0, 3).witness == (-3, 1)
    higher = rigidity_verdict(VeroneseSpace(3, 2))
    assert (higher.rigid, higher.window_independent) == (True, True)


# keyed by the descriptor each entry is built from, aliases included
SCANNED = {
    **{f"rnc:{d}": VeroneseSpace(1, d) for d in range(1, 9)},
    **{f"veronese:{n}:{d}": VeroneseSpace(n, d) for n in range(1, 4) for d in range(1, 7)},
    **{f"segre:{d}": ProductPolarization(d, d) for d in range(1, 7)},
    **{f"product:{a}:{b}": ProductPolarization(a, b) for a in range(1, 6) for b in range(1, 6)},
}


@pytest.mark.parametrize("v", SCANNED.values(), ids=list(SCANNED))
def test_closed_form_verdict_matches_a_window_scan(v):
    """The closed form against a scan of the counts: the witness is the
    nonzero weight nearest zero over -12..4, or there is none and the cone
    is rigid."""
    scanned = next(((m, dim) for m in range(4, -13, -1) if (dim := t1_weight(v, m)) != 0), None)
    verdict = rigidity_verdict(v, -12, 4)
    assert (verdict.rigid, verdict.witness, verdict.window_independent) == (scanned is None, scanned, True)


@pytest.mark.parametrize("v", SCANNED.values(), ids=list(SCANNED))
def test_numeric_verdict_is_one_record_whatever_the_window(v):
    """A numeric verdict holds in every weight and stores no window, so the
    verdicts of any two windows are equal records."""
    verdict = rigidity_verdict(v, -6, 3)
    assert verdict.window_independent and verdict.certificate is None
    for m_lo, m_hi in ((-1000, 1000), (-12, 4), (0, 3), (-1, -1)):
        assert rigidity_verdict(v, m_lo, m_hi) == verdict


def test_delpezzo_verdict_is_certificate_only():
    verdict = rigidity_verdict(BlownUpPlane(6))
    assert verdict.rigid is None
    assert verdict.witness is None
    assert verdict.certificate is not None
    assert verdict.certificate.verdict == "FAIL"  # default window hits contradictions


# ---- hypothesis bookkeeping -------------------------------------------


def test_weight_zero_reports():
    for v in (VeroneseSpace(1, 4), VeroneseSpace(2, 3), ProductPolarization(2, 2), BlownUpPlane(5)):
        flags, _ = weight_zero_criterion(v)
        assert flags == corollary_flags(v, 0)
        assert (flags.h1_polarization, flags.h2_polarization) == (0, 0)
        assert flags.clean
    assert weight_zero_criterion(VeroneseSpace(1, 4))[1] == 0
    assert weight_zero_criterion(BlownUpPlane(5))[1] is None


def test_corollary_flags_clean_cases():
    flags = corollary_flags(VeroneseSpace(1, 4), -1)
    assert (flags.h1_polarization, flags.h2_polarization) == (3, 0)
    assert not flags.clean
    assert corollary_flags(VeroneseSpace(1, 4), 1).clean


def test_corollary_flags_quadric_explains_the_double_count():
    """At the weight where the product cone's classical count is one, the
    polarization itself carries a second cohomology class -- the flag that
    the twisted-tangent number (2) is not the cone's literal count."""
    flags = corollary_flags(ProductPolarization(1, 1), -2)
    assert flags.h2_polarization == 1
    assert not flags.clean


def test_corollary_flags_delpezzo_closed_forms():
    for r in range(1, 9):
        for m in range(0, 4):
            flags = corollary_flags(BlownUpPlane(r), m)
            assert (flags.h1_polarization, flags.h2_polarization) == (0, 0)
        assert corollary_flags(BlownUpPlane(r), -1).h2_polarization == 1
    # degree-based growth for deeper twists: 1 + a(a+1)(9-r)/2, a = -1-m
    assert corollary_flags(BlownUpPlane(6), -2).h2_polarization == 4
    assert corollary_flags(BlownUpPlane(8), -2).h2_polarization == 2
    assert corollary_flags(BlownUpPlane(6), -3).h2_polarization == 10


# ---- graded assembly ---------------------------------------------------


def test_assembly_rnc4():
    negative, zero, positive = pinkham_assembly(VeroneseSpace(1, 4), -2, 2)
    assert negative == {-2: 5, -1: 1}
    assert zero == 0
    assert positive == {1: 0, 2: 0}


def test_assembly_conic_carries_its_witness():
    assert pinkham_assembly(VeroneseSpace(1, 2), -2, 2) == ({-2: 1, -1: 0}, 0, {1: 0, 2: 0})


def test_assembly_quadric_cone():
    negative, zero, _ = pinkham_assembly(ProductPolarization(1, 1), -3, 1)
    assert negative == {-3: 0, -2: 2, -1: 0}
    assert zero == 0


def test_assembly_window_must_contain_zero():
    with pytest.raises(ValueError):
        pinkham_assembly(VeroneseSpace(1, 4), -3, -1)
    with pytest.raises(OutOfScopeError):
        pinkham_assembly(BlownUpPlane(6), -2, 2)


@given(d=st.integers(1, 8), lo=st.integers(-5, 0), hi=st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_assembly_total_matches_table_sum(d, lo, hi):
    v = VeroneseSpace(1, d)
    negative, zero, positive = pinkham_assembly(v, lo, hi)
    total = sum(negative.values()) + zero + sum(positive.values())
    assert total == sum(t1_table(v, lo, hi).values())


# ---- cost ----------------------------------------------------------------


def test_library_tables_and_certificates_are_priced_before_building():
    with pytest.raises(OverBudgetError, match="^the request costs 1402540 units"):
        t1_table(VeroneseSpace(2, 1), -142, 857)
    with pytest.raises(OverBudgetError, match="^weight window -1000000..0 has 1000001 weights"):
        rigidity_verdict(BlownUpPlane(6), -(10**6), 0)
    with pytest.raises(OverBudgetError, match="^the request costs 100002 units"):  # a direct call, too
        delpezzo_certificate(6, -14286, 0)
    # a numeric verdict reads its witness weight alone
    assert rigidity_verdict(VeroneseSpace(1, 4), -(10**18), 0).witness == (-1, 1)


def test_assembly_is_priced_as_one_table():
    # one weight over the budget's window length, refused before any count
    with pytest.raises(OverBudgetError, match=f"^weight window -{MAX_COST}..0 has {MAX_COST + 1} weights"):
        pinkham_assembly(VeroneseSpace(1, 4), -MAX_COST, 0)
    # and by the entry's own cost: the plane's Euler blocks over -100..0
    with pytest.raises(OverBudgetError, match="^the request costs 485201 units"):
        pinkham_assembly(VeroneseSpace(2, 1), -100, 0)
