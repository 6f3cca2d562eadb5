"""Seeded fuzz of ``cli.main``: mutated scenarios, and extreme ``rate`` overrides.

Each document is a bundled scenario with one to three random edits: a
value replaced by one of another type, a key or list entry deleted, a
list entry duplicated, or a number scaled by up to 1e12.  Whatever the
edits, ``qkdplan plan`` must end in a defined exit code (0 to 4) with no
traceback, and every failure must say so in exactly one ``error:`` or
``infeasible:`` line.  Exit 4 is a planner fault, so the only one
allowed is an ``mr`` plan that falls short of a request, which integral
rounding cannot always avoid.

Each ``qkdplan rate`` run sets one or two override flags to extreme
finite values, subnormals and numbers near the float range included.
A table's key rate must not exceed the signal detections it is distilled
from, and a refusal must name its cause: neither an invalid-input line
that reports ``nan`` nor an errno tuple in place of a message.
"""
import contextlib
import copy
import io
import json
import math
import random
import re
import warnings
from pathlib import Path

import qkdplan
from qkdplan.decoy import DEFAULT_PROTOCOL
from qkdplan.cli import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_SOLVER_FAILURE,
    bundled_scenarios,
    main,
)

DOCUMENTS = 1000
OTHER_TYPES = (None, True, False, "x", "", "1e3", -1, 0, 2.5, -1e9, [], {}, [1, 2], {"a": 1})
SHORT_REQUEST = re.compile(r"delivers \d+ < requested \d+")


def _places(value, found):
    """Every (container, key) in a JSON tree, depth first."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        found.append((value, key))
        if isinstance(child, (dict, list)):
            _places(child, found)
    return found


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def mutate(rng: random.Random, doc: dict) -> dict:
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        places = _places(doc, [])
        if not places:
            break
        container, key = rng.choice(places)
        edit = rng.choice(("type", "delete", "duplicate", "scale"))
        if edit == "scale":
            numbers = [(c, k) for c, k in places if _is_number(c[k])]
            if numbers:
                container, key = rng.choice(numbers)
                container[key] *= 10 ** rng.randint(1, 12)
                continue
            edit = "type"
        if edit == "duplicate" and isinstance(container, list):
            container.insert(key, copy.deepcopy(container[key]))
        elif edit == "delete":
            del container[key]
        else:
            container[key] = copy.deepcopy(rng.choice(OTHER_TYPES))
    return doc


def test_mutated_scenarios_exit_with_one_line(tmp_path):
    rng = random.Random(21)
    base = Path(qkdplan.__file__).parent / "scenarios"
    docs = [json.loads((base / f"{name}.json").read_text()) for name in bundled_scenarios()]
    path = tmp_path / "mutant.json"
    codes = dict.fromkeys(range(5), 0)
    for _ in range(DOCUMENTS):
        doc = mutate(rng, rng.choice(docs))
        path.write_text(json.dumps(doc))
        argv = ["plan", str(path), "--objective", rng.choice(("mmd", "mr", "dijkstra")),
                "--format", rng.choice(("md", "csv"))]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(argv)
        lines = err.getvalue().splitlines()
        verdicts = [line for line in lines if line.startswith(("error:", "infeasible:"))]
        context = (code, lines, json.dumps(doc))
        assert code in codes, context
        assert "Traceback" not in err.getvalue(), context
        codes[code] += 1
        if code == EXIT_OK:
            assert verdicts == [] and lines[-1].startswith("wall-clock:"), context
            continue
        assert lines == verdicts and len(verdicts) == 1, context
        assert verdicts[0].startswith("infeasible:") == (code == EXIT_INFEASIBLE), context
        if code == EXIT_SOLVER_FAILURE:
            assert SHORT_REQUEST.search(verdicts[0]), context
    # loading rejects most documents; some still plan, and some are infeasible
    assert codes[1] > DOCUMENTS / 2 and codes[0] > 20 and codes[EXIT_INFEASIBLE] > 5, codes


RATE_FLAGS = ("--distance", "--mu", "--nu", "--y0", "--q", "--f-ec", "--pulse-rate",
              "--atm-db", "--pointing-db", "--rx-efficiency", "--fried-parameter")
EXTREMES = ("1e-320", "1e-300", "1e-12", "0", "-1", "0.5", "1", "3080", "1e12", "1e300",
            "1.7976931348623157e308")
RATE_RUNS = 400
NAN = re.compile(r"\bnan\b")
ERRNO_TUPLE = re.compile(r"\(\d+, '")


def test_extreme_rate_overrides_exit_with_one_line():
    # A finite override either gives a table of finite numbers or is refused
    # in one line: 1 for an invalid parameter, 3 for a model out of its range.
    rng = random.Random(24)
    codes = dict.fromkeys((0, 1, 3), 0)
    for _ in range(RATE_RUNS):
        argv = ["rate", rng.choice(("leo-gs", "geo-gs", "leo-leo"))]
        for flag in rng.sample(RATE_FLAGS, rng.randint(1, 2)):
            argv += [flag, rng.choice(EXTREMES)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        context = (code, argv, out.getvalue(), err.getvalue())
        assert code in codes, context
        codes[code] += 1
        if code == EXIT_OK:
            values = re.findall(r"^\| (\w+) \| ([^|]+) \|$", out.getvalue(), re.M)[2:]
            assert err.getvalue() == "" and len(values) == 9, context
            assert all(math.isfinite(float(value)) for _, value in values), context
            # no key beyond the signal detections: rate <= q x pulse rate x Q_mu,
            # with 0.1% for the 4-digit printing
            flags = dict(zip(argv[2::2], map(float, argv[3::2])))
            table = {name: float(value) for name, value in values}
            cap = (flags.get("--q", DEFAULT_PROTOCOL.q)
                   * flags.get("--pulse-rate", DEFAULT_PROTOCOL.pulse_rate_hz)
                   * table["gain_signal_q_mu"])
            assert table["secret_key_rate_bps"] <= cap * 1.001, context
        else:
            assert out.getvalue() == "", context
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, context
            assert code != 1 or not NAN.search(err.getvalue()), context
            assert not ERRNO_TUPLE.search(err.getvalue()), context
    assert min(codes.values()) > 20, codes
