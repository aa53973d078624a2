"""Report.forall and Report.equal: first counterexample, instance counts,
exceptions as failures."""

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


def _square_sides(x):
    return x * x, x + x


def test_equal_passes_when_the_sides_agree_everywhere():
    rep = Report()
    res = rep.equal("double", "plumbing", [0, 2], _square_sides, "x^2 != 2x")
    assert (res.status, res.witness, res.instances) == ("pass", None, 2)
    assert rep.checks == [res]


def test_equal_fails_with_a_string_witness_and_stops_drawing():
    drawn = []

    def domain():
        for x in (0, 2, 3, 2, 4):
            drawn.append(x)
            yield x

    rep = Report()
    res = rep.equal("double", "plumbing", domain(), _square_sides, "x^2 != 2x on a sample")
    assert (res.status, res.witness, res.instances) == ("fail", "x^2 != 2x on a sample", 2)
    assert drawn == [0, 2, 3]
    assert not res


def test_equal_fails_with_a_callable_witness_that_names_its_input():
    rep = Report()
    res = rep.equal("double", "plumbing", [2, 0, 5, 6], _square_sides,
                    lambda x: f"x^2 != 2x at {x}")
    assert (res.status, res.witness, res.instances) == ("fail", "x^2 != 2x at 5", 2)


def test_equal_compares_tuples_of_sides():
    rep = Report()
    res = rep.equal("both", "plumbing", [2, 1],
                    lambda x: ((x * x, x + 1), (x + x, 3)), "x^2 != 2x or x + 1 != 3")
    assert (res.status, res.witness, res.instances) == ("fail", "x^2 != 2x or x + 1 != 3", 1)


def test_equal_records_an_exception_from_sides_as_failure():
    def sides(x):
        if x == 2:
            raise ZeroDivisionError("side broke at 2")
        return x, x

    rep = Report()
    res = rep.equal("engine", "plumbing", range(4), sides, "never")
    assert res.status == "fail"
    assert res.witness == "exception ZeroDivisionError: side broke at 2"
    assert res.instances == 2


def test_equal_on_an_empty_domain_is_skipped_not_passed():
    rep = Report()
    res = rep.equal("vacuous", "plumbing", iter(()), _square_sides, "x^2 != 2x")
    assert (res.status, res.witness, res.instances) == ("skipped", "no instances evaluated", 0)
    assert res
    assert rep.passed


def test_equal_with_a_witness_per_component_names_the_first_that_differs():
    rep = Report()
    witness = ("x^2 != 2x", lambda x: f"x + 1 != 3 at {x}")
    res = rep.equal("both", "plumbing", [2, 1],
                    lambda x: ((x * x, x + 1), (x + x, 3)), witness)
    assert (res.status, res.witness, res.instances) == ("fail", "x^2 != 2x", 1)
    res = rep.equal("second", "plumbing", [2, 4],
                    lambda x: ((x * x, x + 1), (x * x, 3)), witness)
    assert (res.status, res.witness, res.instances) == ("fail", "x + 1 != 3 at 4", 1)


def test_equal_records_whether_any_instance_had_a_nonzero_side():
    rep = Report()
    assert rep.equal("zeros", "plumbing", [0, 0], lambda x: ((x, x), (0, x)), "W").nonzero is False
    assert rep.equal("one", "plumbing", [0, 3, 0], lambda x: (x, x), "W").nonzero is True
    assert rep.equal("none", "plumbing", [], lambda x: (x, x), "W").nonzero is False
    assert rep.forall("predicate", "plumbing", [1], lambda x: None).nonzero is None
    assert "nonzero" not in rep.to_dict()["checks"][0]
