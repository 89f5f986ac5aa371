import json
import math

import pytest

from lowerk.casebook import (
    CASES,
    CaseReport,
    Check,
    case_b3,
    case_mcg_rp2_3,
    case_pb3,
    full_braid_amalgam,
    phi,
    run_case,
    verify_word_identities,
)
from lowerk.cli import case_table
from lowerk.presentations import parse_word


@pytest.mark.parametrize("name", CASES)
def test_every_case_passes(name):
    report = run_case(name)
    failing = [c for c in report.checks if not c.passed]
    assert report.passed, failing


def test_case_list_is_exactly_the_four_desk_cases():
    # nothing here claims the general splitting machinery; the suite is
    # exactly these four finite verifications
    assert set(CASES) == {"pb3", "b3", "mcg-rp2-3", "words"}
    assert len(CASES) == 4


def _json(report):
    return json.dumps(report.to_dict(), indent=2)


def test_reports_are_deterministic():
    a = _json(case_b3())
    b = _json(case_b3())
    assert a == b
    assert _json(verify_word_identities()) == _json(verify_word_identities())


def test_every_check_has_a_citation():
    for report in [run_case(name) for name in CASES]:
        for check in report.checks:
            assert check.cite


def test_words_case_contents():
    report = verify_word_identities()
    relator_checks = [c for c in report.checks if c.name.startswith("relator vanishes")]
    assert len(relator_checks) == 8
    by_name = {c.name: c for c in report.checks}
    assert by_name["order of the image of r1 s2"].computed == "4"
    assert by_name["order of the image of r3"].computed == "infinite"
    assert by_name["order of the image of a^2"].computed == "6"
    assert by_name["two expressions for beta agree"].passed
    assert by_name["beta^4 equals s2^-12"].passed


def test_phi_matches_expected_generator_images():
    am = full_braid_amalgam()
    a_word = parse_word("r3 s2 s1")
    assert phi(am, a_word) == am.evaluate(parse_word("Y"))
    assert phi(am, parse_word("r1 r2")) == am.evaluate(parse_word("P"))


def test_word_report_beta_order_is_infinite():
    am = full_braid_amalgam()
    delta = parse_word("s1 s2 s1")
    tau = parse_word("s1^-1 r1") * delta
    a_word = parse_word("r3 s2 s1")
    beta = (parse_word("r3 r2") ** -1) * tau * (a_word ** 3) * tau.inverse()
    assert am.order_of(phi(am, beta)) == math.inf


def test_pb3_case_stabilizers_are_computed():
    report = case_pb3()
    names = [c.name for c in report.checks]
    assert "vertex stabilizers are Z/4 and the quaternion group" in names
    assert "edge stabilizer is Z/2" in names
    by_name = {c.name: c for c in report.checks}
    assert by_name["reduced K0"].computed == "Z/2"
    assert by_name["Whitehead group"].computed == "0"


def test_b3_case_values():
    report = case_b3()
    by_name = {c.name: c for c in report.checks}
    assert by_name["Whitehead group"].computed == "Z^2 + (Z/2)^(oo)"
    assert by_name["reduced K0"].computed == "(Z/2)^4 + (Z/2)^(oo)"
    assert by_name["K in degree -1"].computed == "Z^2 + (Z/2)^2"
    assert by_name["K below degree -1"].computed == "0"


def test_mcg_case_values():
    report = case_mcg_rp2_3()
    by_name = {c.name: c for c in report.checks}
    assert by_name["K in degree -1"].computed == "Z"
    assert by_name["Whitehead group"].computed == "0"
    assert by_name["reduced K0"].computed == "0"


def test_report_serialization_shapes():
    report = case_pb3()
    data = report.to_dict()
    assert data["case"] == "pb3"
    assert data["pass"] is True
    assert all(set(c) == {"check", "expected", "computed", "cite", "pass"}
               for c in data["checks"])
    parsed = json.loads(_json(report))
    assert parsed == data
    table = case_table(report)
    assert "case pb3: pass" in table
    assert all(c["check"] in table for c in data["checks"])


def test_overall_pass_requires_every_check():
    report = CaseReport("synthetic", [
        Check("good", "1", "1", "cite", True),
        Check("bad", "1", "2", "cite", False),
    ])
    assert not report.passed


def test_unknown_case_rejected():
    with pytest.raises(KeyError):
        run_case("teichmueller")
