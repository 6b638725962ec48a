"""The records the package builds and reads.

``GeneratorConfig``, ``Check``, ``CheckFailure`` and ``Halfline`` are immutable
``NamedTuple``s: assigning an attribute raises ``AttributeError``, and equal
records hash alike.  ``CheckReport`` is the one mutable record: it is built
positionally or by keyword, each report gets its own ``failures`` and ``notes``
lists, and reports are equal when their fields are.
"""

import copy
import pickle

import pytest

from solidus import CheckFailure, CheckReport, GeneratorConfig, Halfline, HalflineKind, Side
from solidus.checks import Check
from solidus.external import canonicalize
from solidus.neutrix import INFINITESIMALS


def _draw(s):
    return (s.external(),)


def _verdict(x):
    return None


def _records():
    """Each immutable record, built twice from equal fields, and the name of its first field."""
    bound = canonicalize(2, INFINITESIMALS)
    for build, first in (
        (lambda: GeneratorConfig(seed=5), "seed"),
        (lambda: CheckFailure((("x", "1"),), "holds", "2"), "inputs"),
        (lambda: Check("test.record", "theorems", "a test law", ("x",), _draw, _verdict, "holds"), "check_id"),
        (lambda: Halfline(Side.LOWER, HalflineKind.OPEN, bound), "side"),
    ):
        yield build(), build(), first


RECORDS = list(_records())


@pytest.mark.parametrize("record, twin, first", RECORDS, ids=[type(r).__name__ for r, _, _ in RECORDS])
class TestImmutableRecords:
    def test_assigning_an_attribute_raises(self, record, twin, first):
        before = getattr(record, first)
        with pytest.raises(AttributeError):
            setattr(record, first, None)
        with pytest.raises(AttributeError):
            record.extra = None
        assert getattr(record, first) is before and record == twin

    def test_equal_records_hash_alike(self, record, twin, first):
        assert record == twin and record is not twin
        assert hash(record) == hash(twin)


def test_a_halfline_round_trips_through_pickle_and_copy():
    h = Halfline(Side.UPPER, HalflineKind.STRONGLY_OPEN, canonicalize(2, INFINITESIMALS))
    for copied in (pickle.loads(pickle.dumps(h)), copy.copy(h), copy.deepcopy(h)):
        assert copied == h and type(copied) is Halfline and str(copied) == str(h)


def test_the_default_generator_config_is_seed_zero():
    assert GeneratorConfig() == GeneratorConfig(seed=0) == GeneratorConfig(0)
    assert repr(GeneratorConfig()) == "GeneratorConfig(seed=0)"


def test_a_check_from_seven_positional_fields_takes_the_defaults():
    check = Check("test.record", "theorems", "a test law", ("x",), _draw, _verdict, "holds")
    assert (check.expect_failures, check.note) == (False, "")
    assert check.admits(("anything",)) is True
    assert not check.single
    assert Check("test.identity", "theorems", "a test law", (), _draw, _verdict, "holds").single


class TestCheckReport:
    def test_built_positionally_as_the_traced_replay_builds_it(self):
        failure = CheckFailure((("x", "1"),), "holds", "2")
        report = CheckReport("test.report", 7, [failure], True, ["a note"])
        assert (report.check_id, report.samples, report.failures, report.expect_failures, report.notes) == (
            "test.report", 7, [failure], True, ["a note"],
        )
        assert report == CheckReport("test.report", 7, failures=[failure], expect_failures=True, notes=["a note"])
        assert (report.passed, report.status, report.ok) == (False, "expected-fail", True)

    def test_reports_built_with_defaults_share_no_list(self):
        a, b = CheckReport("test.report", 1), CheckReport("test.report", 1)
        assert a.failures is not b.failures and a.notes is not b.notes
        a.notes.append("a note")
        assert b.notes == []

    def test_equality_is_by_fields(self):
        a, b = CheckReport("test.report", 1), CheckReport("test.report", 1)
        assert a == b
        b.failures.append(CheckFailure((), "holds", "fails"))
        assert a != b
        assert CheckReport("test.report", 1) != CheckReport("test.report", 2)
        assert CheckReport("test.report", 1) != ("test.report", 1, [], False, [])

    def test_the_repr_names_the_fields(self):
        assert repr(CheckReport("test.report", 1)) == (
            "CheckReport(check_id='test.report', samples=1, failures=[], expect_failures=False, notes=[])"
        )

    def test_a_report_is_mutable_and_unhashable(self):
        report = CheckReport("test.report", 1)
        report.samples = 2
        assert report.samples == 2
        with pytest.raises(TypeError):
            hash(report)
