"""Verification report plumbing: ordered check results with witnesses.

`Report.forall` is the one check loop: it evaluates a defect on a lazy
domain and records the first counterexample.  `Report.equal` is `forall`
for an identity of two sides, which is what a check is: one witness text,
or one per component where the sides are tuples.  A check may stay on
`forall` only when its defect is a predicate (a solve, an invertibility or
bijectivity test, a search through the parts of one instance), or when its
domain is a generator of outcomes that draws between its checks.
"""

import json
import time


NO_INSTANCES = "no instances evaluated"


class CheckResult:
    __slots__ = ("check_id", "anchor", "status", "witness", "sample_spec",
                 "duration_ms", "instances", "nonzero")

    def __init__(self, check_id, anchor, status="pass", witness=None, sample_spec="",
                 duration_ms=0, instances=0):
        self.check_id = check_id
        self.anchor = anchor
        self.status = status  # pass | fail | skipped
        self.witness = witness
        self.sample_spec = sample_spec
        self.duration_ms = duration_ms
        self.instances = instances  # instances that held; kept out of to_dict
        # whether an `equal` saw a nonzero side (None on a `forall`); kept out of to_dict
        self.nonzero = None

    def __bool__(self):
        return self.status != "fail"


def outcome(witness):
    """Defect of a domain whose instances are already outcomes (None or a witness)."""
    return witness


def _nonzero(side):
    """Whether a side is nonzero: a Cyc or Vec by `is_zero()`, a tuple by any
    of its components, any other value by its truth."""
    if isinstance(side, tuple):
        return any(map(_nonzero, side))
    is_zero = getattr(side, "is_zero", None)
    return bool(side) if is_zero is None else not is_zero()


class Report:
    """Ordered collection of check results for one suite run."""

    def __init__(self, meta=None):
        self.meta = dict(meta or {})
        self.checks: list[CheckResult] = []

    def forall(self, check_id, anchor, domain, defect):
        """Check that `defect(x)` is None for every x of the lazy `domain`.

        `defect` returns None when the identity holds at x, else a witness
        string.  The check stops at the first witness, counts the instances
        that held, and records an exception from the domain or from
        `defect` as a failure.  An empty domain proves nothing, so it is
        recorded as skipped, never as a pass.  Returns the CheckResult,
        falsy on failure.
        """
        res = CheckResult(check_id, anchor, sample_spec=self.meta.get("sample_spec", ""))
        t0 = time.monotonic()
        try:
            for x in domain:
                witness = defect(x)
                if witness is not None:
                    res.status = "fail"
                    res.witness = str(witness)
                    break
                res.instances += 1
        except Exception as exc:
            res.status = "fail"
            res.witness = f"exception {type(exc).__name__}: {exc}"
        if res.status == "pass" and not res.instances:
            res.status = "skipped"
            res.witness = NO_INSTANCES
        res.duration_ms = int((time.monotonic() - t0) * 1000)
        self.checks.append(res)
        return res

    def equal(self, check_id, anchor, domain, sides, witness):
        """Check that lhs == rhs for `(lhs, rhs) = sides(x)` at every x of the
        lazy `domain`.  `witness` is the failure's text, or a callable giving
        it at x; or, where lhs and rhs are tuples, a tuple of one such per
        component, of which the first component that differs gives its own.
        Otherwise `forall`, whose CheckResult it returns, with `nonzero` set."""
        names = [w if callable(w) else lambda _, w=w: w
                 for w in (witness if isinstance(witness, tuple) else (witness,))]
        nonzero = False

        def defect(x):
            nonlocal nonzero
            lhs, rhs = sides(x)
            nonzero = nonzero or _nonzero(lhs) or _nonzero(rhs)
            if lhs != rhs:
                parts = zip(names, lhs, rhs) if len(names) > 1 else [(names[0], lhs, rhs)]
                return next(name(x) for name, l, r in parts if l != r)
            return None

        res = self.forall(check_id, anchor, domain, defect)
        res.nonzero = nonzero
        return res

    def add_skipped(self, check_id, anchor, reason):
        self.checks.append(CheckResult(check_id, anchor, "skipped", str(reason)))

    @property
    def passed(self):
        return all(c.status != "fail" for c in self.checks)

    def counts(self):
        out = {"pass": 0, "fail": 0, "skipped": 0}
        for c in self.checks:
            out[c.status] += 1
        return out

    def failures(self):
        return [c for c in self.checks if c.status == "fail"]

    def to_dict(self):
        return {
            "meta": {k: self.meta[k] for k in sorted(self.meta)},
            "summary": self.counts(),
            "checks": [
                {
                    "check_id": c.check_id,
                    "anchor": c.anchor,
                    "status": c.status,
                    "witness": c.witness,
                    "sample_spec": c.sample_spec,
                    "duration_ms": c.duration_ms,
                }
                for c in self.checks
            ],
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_text(self):
        lines = []
        for k in sorted(self.meta):
            lines.append(f"# {k} = {self.meta[k]}")
        for c in self.checks:
            line = f"[{c.status.upper():7s}] {c.check_id} ({c.anchor}) {c.duration_ms}ms"
            if c.witness:
                line += f"\n          witness: {c.witness}"
            lines.append(line)
        cnt = self.counts()
        lines.append(f"# {cnt['pass']} passed, {cnt['fail']} failed, {cnt['skipped']} skipped")
        return "\n".join(lines)
