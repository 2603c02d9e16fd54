"""The one bench gate shared by the four gated suites.

``repro.bench.perf``, ``repro.slo.tradeoff``, ``repro.multibuild.bench``
and ``repro.cluster.bench`` each declare a :class:`Suite` -- scenarios,
row schema, required names, self-gates, drift fields, echo lines -- and
this module owns the rest: the payload envelope, the scenario loop that
turns exceptions into failed rows, the by-name drift check against a
reference payload of the same suite, and the CLI (``--out``,
``--smoke``, ``--only``, ``--check-against``, ``--max-regression``).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

#: one scenario: its name, its ``kind`` (None for suites whose rows
#: carry no kind) and the thunk that runs it and returns the row body
Entry = tuple[str, Optional[str], Callable[[], dict]]


def _rows(payload: Any) -> list[dict]:
    """The payload's scenario rows that are objects; anything malformed
    is reported by :meth:`Suite.validate_payload`, never iterated."""
    scenarios = payload.get("scenarios") if isinstance(payload, dict) \
        else None
    if not isinstance(scenarios, list):
        return []
    return [row for row in scenarios if isinstance(row, dict)]


def find_scenario(payload: dict, name: str) -> Optional[dict]:
    for scenario in _rows(payload):
        if scenario.get("name") == name:
            return scenario
    return None


def _failed_scenarios(payload: dict) -> list[str]:
    return [f"scenario {row.get('name')} failed: "
            f"{row.get('error', 'unknown error')}"
            for row in _rows(payload) if not row.get("ok")]


def _dotted(row: dict, path: str) -> Any:
    value: Any = row
    for part in path.split("."):
        value = value.get(part) if isinstance(value, dict) else None
    return value


def _drift_problems(payload: dict, reference: dict, fields: Iterable[str],
                    max_regression: float) -> list[str]:
    """Row-by-row comparison of ``fields`` (both directions).

    Only ok rows present in both payloads are compared.  The suites
    drift-check simulated-clock numbers, so matching parameters must
    reproduce matching numbers on any machine; the tolerance exists for
    deliberate recalibrations, not noise.
    """
    problems = []
    for row in _rows(payload):
        name = row.get("name")
        if not row.get("ok") or not isinstance(name, str):
            continue
        ref = find_scenario(reference, name)
        if ref is None or not ref.get("ok"):
            continue
        for path in fields:
            new, old = _dotted(row, path), _dotted(ref, path)
            if not isinstance(new, (int, float)) \
                    or not isinstance(old, (int, float)) or old == 0:
                continue
            drift = abs(new - old) / old
            if drift > max_regression:
                problems.append(
                    f"{name}: {path} {new:.2f} drifted {drift:.0%} from "
                    f"reference {old:.2f} (tolerance {max_regression:.0%})")
    return problems


def scenario_count(payload: dict) -> str:
    return f"{len(payload['scenarios'])} scenario(s)"


@dataclass(frozen=True)
class Suite:
    """What one bench suite owns; the gate supplies the rest."""

    #: module path; also the payload's ``suite`` and the CLI's prog
    name: str
    #: CLI banner, e.g. ``"perf suite"``
    title: str
    description: str
    #: mode -> the scenarios to run, in order
    scenarios: Callable[[str], list[Entry]]
    #: (payload, reference or None, max_regression) -> self-gate problems
    gates: Callable[[dict, Optional[dict], float], list[str]]
    #: (name, ok row) -> the echo line after ``"  ok   "``
    ok_line: Callable[[str, dict], str]
    #: (name, ok row) -> per-row schema problems
    check_row: Callable[[str, dict], list[str]]
    #: allowed row kinds; empty when rows carry no ``kind``
    kinds: tuple[str, ...] = ()
    #: dotted row fields drift-checked against a reference
    drift_fields: tuple[str, ...] = ()
    #: mode -> scenario names an unfiltered payload must contain;
    #: None means every scenario the mode runs
    required: Optional[Callable[[str], Iterable[str]]] = None
    #: payload -> the final ``ok:`` line's text
    summary: Callable[[dict], str] = scenario_count
    #: suite-level constants recorded in the payload envelope
    extra: dict = field(default_factory=dict)
    schema_version: int = 1

    def run_suite(self, mode: str = "full", *, only: Optional[str] = None,
                  echo: Callable[[str], None] = lambda line: None) -> dict:
        """Run every scenario; never raises -- failures land in the JSON.

        ``only`` restricts the run to scenarios whose name starts with
        the given prefix; filtered payloads carry an ``only`` key and
        skip the required-scenario check.
        """
        scenarios: list[dict] = []
        for name, kind, thunk in self.scenarios(mode):
            if only is not None and not name.startswith(only):
                continue
            row: dict[str, Any] = {"name": name, "ok": True}
            if kind is not None:
                row["kind"] = kind
            try:
                row.update(thunk())
            except Exception as exc:  # noqa: BLE001 - recorded, gated later
                row["ok"] = False
                row["error"] = f"{type(exc).__name__}: {exc}"
                echo(f"  FAIL {name}: {row['error']}")
            else:
                echo(f"  ok   {self.ok_line(name, row)}")
            scenarios.append(row)
        payload = {
            "schema_version": self.schema_version,
            "suite": self.name,
            "mode": mode,
            "python": sys.version.split()[0],
            **self.extra,
            "scenarios": scenarios,
        }
        if only is not None:
            payload["only"] = only
        return payload

    def validate_payload(self, payload: dict) -> list[str]:
        """Schema check; returns a list of problems (empty = valid)."""
        if not isinstance(payload, dict):
            return ["payload must be a JSON object"]
        problems: list[str] = []
        if payload.get("schema_version") != self.schema_version:
            problems.append(f"schema_version != {self.schema_version}")
        if payload.get("suite") != self.name:
            problems.append("suite name mismatch")
        if payload.get("mode") not in ("full", "smoke"):
            problems.append("mode must be 'full' or 'smoke'")
        scenarios = payload.get("scenarios")
        if not isinstance(scenarios, list) or not scenarios:
            return problems + ["scenarios must be a non-empty list"]
        names = set()
        for index, row in enumerate(scenarios):
            if not isinstance(row, dict):
                problems.append(f"scenario #{index} is not an object")
                continue
            name = row.get("name")
            if not isinstance(name, str) or not name:
                problems.append("scenario without a name")
                continue
            if name in names:
                problems.append(f"duplicate scenario {name}")
            names.add(name)
            if self.kinds and row.get("kind") not in self.kinds:
                problems.append(f"{name}: bad kind")
            if not isinstance(row.get("ok"), bool):
                problems.append(f"{name}: ok must be a bool")
            if row.get("ok"):
                problems.extend(self.check_row(name, row))
        if payload.get("only") is None:
            problems.extend(f"{name} scenario missing"
                            for name in self._required(payload.get("mode"))
                            if name not in names)
        return problems

    def _required(self, mode: str) -> Iterable[str]:
        if self.required is not None:
            return self.required(mode)
        return [name for name, _, _ in self.scenarios(mode)]

    def _gateable(self, payload: dict) -> dict:
        """``payload`` with only the rows a self-gate may read: failed
        rows, and ok rows that pass :attr:`check_row`.  A self-gate may
        then index an ok row's fields directly; a row with a schema
        problem is reported by :meth:`validate_payload` instead."""
        rows = [row for row in _rows(payload) if not row.get("ok")
                or not self.check_row(row.get("name"), row)]
        return {**payload, "scenarios": rows}

    def check_payload(self, payload: dict, reference: Optional[dict] = None,
                      *, max_regression: float = 0.30) -> list[str]:
        """Full gate: schema, failed scenarios, the suite's self-gates,
        and drift against ``reference``.

        Reference rows are matched by name wherever both payloads ran
        the scenario, so a smoke run checks against a full baseline.
        The reference must itself be a valid payload of this suite; one
        that is not is reported and then ignored, so a file from another
        suite cannot pass by matching no rows.
        """
        problems = self.validate_payload(payload)
        if reference is not None:
            unusable = [f"reference: {problem}"
                        for problem in self.validate_payload(reference)]
            problems.extend(unusable)
            if unusable:
                reference = None
        problems.extend(_failed_scenarios(payload))
        problems.extend(self.gates(self._gateable(payload), reference,
                                   max_regression))
        if reference is not None:
            problems.extend(_drift_problems(payload, reference,
                                            self.drift_fields,
                                            max_regression))
        return problems

    def main(self, argv: Optional[list[str]] = None) -> int:
        parser = argparse.ArgumentParser(prog=f"python -m {self.name}",
                                         description=self.description)
        parser.add_argument("--out", required=True,
                            help="write the results JSON here")
        parser.add_argument("--smoke", action="store_true",
                            help="the suite's CI subset")
        parser.add_argument("--only", metavar="PREFIX", default=None,
                            help="run only scenarios whose name starts "
                                 "with PREFIX (light validation: no "
                                 "completeness check, no reference)")
        parser.add_argument("--check-against", metavar="REF",
                            help="reference JSON from this suite to gate "
                                 "against")
        parser.add_argument("--max-regression", type=float, default=0.30,
                            help="allowed relative drift or speedup loss "
                                 "vs the reference (default 0.30)")
        args = parser.parse_args(argv)

        mode = "smoke" if args.smoke else "full"
        suffix = f", only={args.only}" if args.only else ""
        print(f"{self.title} ({mode}{suffix})")
        payload = self.run_suite(mode, only=args.only, echo=print)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")

        if args.only:
            problems = [] if payload["scenarios"] else \
                [f"--only {args.only} matched no scenarios"]
            problems.extend(_failed_scenarios(payload))
        else:
            reference = None
            if args.check_against:
                with open(args.check_against, "r",
                          encoding="utf-8") as handle:
                    reference = json.load(handle)
            problems = self.check_payload(payload, reference,
                                          max_regression=args.max_regression)
        for problem in problems:
            print(f"FAIL: {problem}")
        if not problems:
            print(f"ok: {self.summary(payload)}")
        return 1 if problems else 0
