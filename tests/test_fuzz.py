"""Seeded mutation fuzz of the bundled scenarios through ``cli.main``.

Each document is a bundled scenario with one to three random edits: a
value replaced by one of another type, a key or list entry deleted, a
list entry duplicated, or a number scaled by up to 1e12.  Whatever the
edits, ``qkdplan plan`` must end in a defined exit code (0 to 4) with no
traceback, and every failure must say so in exactly one ``error:`` or
``infeasible:`` line.  Exit 4 is a planner fault, so the only one
allowed is an ``mr`` plan that falls short of a request, which integral
rounding cannot always avoid.
"""
import contextlib
import copy
import io
import json
import random
import re
import warnings
from pathlib import Path

import qkdplan
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
