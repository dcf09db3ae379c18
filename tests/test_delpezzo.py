"""Replay certificates: step grading, verdict aggregation, determinism."""

import re

import pytest

from conedef import delpezzo
from conedef.cones import BlownUpPlane
from conedef.delpezzo import (
    Certificate,
    CertStep,
    delpezzo_certificate,
)
from conedef.projective import RequestError


def steps_matching(cert, fragment, status=None):
    out = [s for s in cert.steps if fragment in s.term]
    if status is not None:
        out = [s for s in out if s.status == status]
    return out


# ---- verdict aggregation on synthetic certificates --------------------


def _step(claimed, computed):
    return CertStep("t", claimed, computed, "r", "a")


VERIFIED, CONTRADICTED, ASSERTED = _step(0, 0), _step(0, 1), _step(None, None)


def test_a_step_status_follows_from_its_claimed_and_computed_values():
    assert (VERIFIED.status, CONTRADICTED.status, ASSERTED.status) == ("VERIFIED", "CONTRADICTED", "ASSERTED")


def test_verdict_all_verified_passes():
    cert = Certificate("c", [VERIFIED, VERIFIED])
    assert cert.verdict == "PASS"


def test_verdict_assertion_downgrades():
    cert = Certificate("c", [VERIFIED, ASSERTED])
    assert cert.verdict == "PASS_WITH_ASSERTIONS"


def test_verdict_contradiction_dominates():
    cert = Certificate("c", [VERIFIED, ASSERTED, CONTRADICTED])
    assert cert.verdict == "FAIL"


def test_empty_certificate_is_not_a_pass():
    assert Certificate("c", []).verdict == "PASS_WITH_ASSERTIONS"


# ---- the replayed argument --------------------------------------------


def test_r6_default_window_structure():
    cert = delpezzo_certificate(6)
    counts = cert.counts()
    assert cert.verdict == "FAIL"
    assert counts["CONTRADICTED"] > 0
    assert counts["VERIFIED"] > 0
    assert counts["ASSERTED"] > 0


@pytest.mark.parametrize("m", [0, 1, 2])
def test_r6_nonnegative_twists_verify_up_to_two(m):
    cert = delpezzo_certificate(6, m, m)
    h1_steps = steps_matching(cert, f"[m={m}] first cohomology of the line bundle")
    assert len(h1_steps) == 1
    assert h1_steps[0].status == "VERIFIED"
    assert h1_steps[0].computed == 0


def test_r6_twist_three_is_contradicted():
    cert = delpezzo_certificate(6, 3, 3)
    h1_steps = steps_matching(cert, "[m=3] first cohomology of the line bundle")
    assert len(h1_steps) == 1
    assert h1_steps[0].status == "CONTRADICTED"
    assert h1_steps[0].computed == 1  # h^1 of the degree -2 bundle on a line
    assert cert.verdict == "FAIL"


def test_r6_clean_window_passes_with_assertions():
    cert = delpezzo_certificate(6, 0, 2)
    assert cert.verdict == "PASS_WITH_ASSERTIONS"
    assert cert.counts()["CONTRADICTED"] == 0


def test_r6_negative_twists_hit_two_contradictions_each():
    cert = delpezzo_certificate(6, -2, -2)
    assert cert.verdict == "FAIL"
    ample = steps_matching(cert, "claimed ampleness", "CONTRADICTED")
    assert len(ample) == 1
    assert "degree -1" in ample[0].computed
    h1 = steps_matching(cert, "[m=-2] first cohomology of the line bundle", "CONTRADICTED")
    assert len(h1) == 1
    assert h1[0].computed == 1
    # the degree bookkeeping itself is sound and verifies
    deg = steps_matching(cert, "[m=-2] restriction of the twisted cotangent summand")
    assert deg[0].status == "VERIFIED"
    assert deg[0].computed == -2


def test_r7_deep_twist_contradiction_value():
    cert = delpezzo_certificate(7, -2, -2)
    assert cert.verdict == "FAIL"
    h1 = steps_matching(cert, "first cohomology of the line bundle of degree -4", "CONTRADICTED")
    assert len(h1) == 1
    assert h1[0].computed == 3
    # the plane cotangent vanishing it leans on does verify
    plane = steps_matching(cert, "plane cotangent sheaf")
    assert len(plane) == 1
    assert plane[0].status == "VERIFIED"


def test_r7_has_no_nonnegative_blocks():
    cert = delpezzo_certificate(7, 0, 3)
    assert steps_matching(cert, "first cohomology of the line bundle") == []
    # prelude only: everything checkable verifies
    assert cert.verdict in ("PASS", "PASS_WITH_ASSERTIONS")


def test_r8_deep_twist_scaling():
    cert = delpezzo_certificate(8, -3, -3)
    h1 = steps_matching(cert, "first cohomology of the line bundle of degree -5", "CONTRADICTED")
    assert len(h1) == 1
    assert h1[0].computed == 4


def test_prelude_intersection_numbers():
    for r in range(1, 9):
        cert = delpezzo_certificate(r, 0, 0)
        k2 = steps_matching(cert, "self-intersection of the canonical class")
        assert k2[0].computed == 9 - r
        assert k2[0].status == "VERIFIED"
        deg = steps_matching(cert, "degree of the canonical class on an exceptional line")
        assert deg[0].computed == -1


def test_certificates_are_deterministic():
    a = delpezzo_certificate(6).to_dict()
    b = delpezzo_certificate(6).to_dict()
    assert a == b
    # the steps are a tuple, so a built certificate hashes and nothing can append to it
    cert = delpezzo_certificate(6)
    assert cert == delpezzo_certificate(6) and hash(cert) == hash(delpezzo_certificate(6))


def test_validation():
    with pytest.raises(ValueError):
        delpezzo_certificate(0)
    with pytest.raises(ValueError):
        delpezzo_certificate(9)
    with pytest.raises(ValueError):
        delpezzo_certificate(6, 2, -2)


@pytest.mark.parametrize("r", [0, 9])
def test_a_point_count_out_of_range_is_refused_as_the_entry_refuses_it(r):
    """The rule 1 <= r <= 8 has one owner, the catalog entry's constructor."""
    message = f"BlownUpPlane field r must be between 1 and 8, got {r}"
    with pytest.raises(RequestError, match=f"^{re.escape(message)}$"):
        delpezzo_certificate(r, 0, 0)


@pytest.mark.parametrize("r", [True, 6.0, "6"], ids=["bool", "float", "str"])
def test_a_point_count_that_is_not_an_int_is_refused(r):
    """By ``BlownUpPlane(r)``, with its error: a bool would read as 1 point."""
    message = f"BlownUpPlane field r must be an int, got {r!r}"
    for refuse in (lambda: delpezzo_certificate(r, 0, 0), lambda: BlownUpPlane(r)):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            refuse()


@pytest.mark.parametrize("r", range(1, 9))
def test_certificate_cost_counts_the_steps_of_each_twist(r, monkeypatch):
    """The price delpezzo_certificate puts on twist m is the number of
    steps the certificate adds for it, at least one, so a window is priced
    without building it."""
    steps = [len(delpezzo_certificate(r, -8, m).steps) for m in range(-8, 5)]
    added = [b - a for a, b in zip(steps, steps[1:])]
    priced = []
    monkeypatch.setattr(delpezzo, "priced_window", lambda lo, hi, cost: priced.extend(map(cost, range(lo, hi + 1))))
    delpezzo_certificate(r, -7, 4)
    assert priced == [max(1, n) for n in added]


def test_to_dict_shape():
    d = delpezzo_certificate(6, 0, 0).to_dict()
    assert set(d) == {"claim", "verdict", "counts", "steps"}
    for step in d["steps"]:
        assert set(step) == {"term", "claimed", "computed", "rule", "anchor", "status"}
        assert step["status"] in {"VERIFIED", "ASSERTED", "CONTRADICTED"}
