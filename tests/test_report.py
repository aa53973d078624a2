"""Report.forall: first counterexample, instance counts, exceptions as failures."""

from cotwist.report import Report


def _odd(x):
    return f"{x} is odd" if x % 2 else None


def test_forall_stops_at_first_witness_without_drawing_further():
    drawn = []

    def domain():
        for x in (2, 4, 5, 6, 7):
            drawn.append(x)
            yield x

    rep = Report()
    res = rep.forall("even", "plumbing", domain(), _odd)
    assert res.status == "fail"
    assert res.witness == "5 is odd"
    assert drawn == [2, 4, 5]
    assert res.instances == 2
    assert rep.checks == [res]


def test_forall_counts_every_instance_that_held():
    rep = Report({"sample_spec": "box=1;samples=3;seed=7"})
    res = rep.forall("even", "plumbing", (2 * k for k in range(7)), _odd)
    assert res.status == "pass" and res.witness is None
    assert res.instances == 7
    assert res.sample_spec == "box=1;samples=3;seed=7"
    assert "instances" not in rep.to_dict()["checks"][0]


def test_forall_records_an_exception_from_defect_as_failure():
    def defect(x):
        if x == 3:
            raise ValueError("engine broke at 3")
        return None

    rep = Report()
    res = rep.forall("engine", "plumbing", range(5), defect)
    assert res.status == "fail"
    assert res.witness == "exception ValueError: engine broke at 3"
    assert res.instances == 3
    assert rep.checks == [res]


def test_forall_result_is_falsy_only_on_failure():
    rep = Report()
    assert rep.forall("ok", "plumbing", [2], _odd)
    assert rep.forall("empty", "plumbing", [], _odd)
    assert not rep.forall("bad", "plumbing", [1], _odd)
    assert [c.status for c in rep.checks] == ["pass", "skipped", "fail"]


def test_forall_on_an_empty_domain_is_skipped_not_passed():
    rep = Report()
    res = rep.forall("vacuous", "plumbing", iter(()), _odd)
    assert res.status == "skipped"
    assert res.witness == "no instances evaluated"
    assert res.instances == 0
    assert rep.counts() == {"pass": 0, "fail": 0, "skipped": 1}
    assert rep.passed
