"""Single-key mutations of the pinned CLI configs end in a documented exit code.

Every numeric key of every command's config is set to 1e300, -1e300, 10**400
and 1e-300 in turn, and a seeded sample of other values (null, booleans,
strings, zero, negatives, fractions, empty containers, NaN) replaces the other
keys.  Each mutated config must exit 0, 2, 3 or 4: a raised exception is a
traceback at the command line.  A number too large to mean anything (1e300,
-1e300 and 10**400; integers stop at 2**53 and other numbers at 1e150) must
exit 4 with a message naming its key.
"""

import copy
import json
import random

import pytest
from test_cli import (
    CLOSED_CONSTANTS,
    CONE,
    DIRICHLET_SMALL,
    ESTIMATES,
    EXHAUSTION,
    INSTANCE,
    SUBSOL,
    SWEEP,
)

from hcl.cli import main

# the pinned configs of the CLI tests, with an option block that puts the
# solver options under mutation too
OPTIONS = {"residual_scale": 1e-9, "max_newton": 20, "delta": 0.1}
BASES = {
    "lemma-check": [{"battery": {"count": 5, "seed": 1}}, {"instances": [INSTANCE]}],
    "cone-check": [CONE],
    "subsol-check": [SUBSOL],
    "solve-closed": [dict(CLOSED_CONSTANTS, options=OPTIONS)],
    "solve-dirichlet": [DIRICHLET_SMALL],
    "degenerate-sweep": [SWEEP],
    "exhaustion": [EXHAUSTION],
    "estimate-report": [ESTIMATES],
}
HUGE = [1e300, -1e300, 10**400]
EXTREMES = [*HUGE, 1e-300]
OTHERS = [None, True, "x", 0, -1, 0.5, [], {}, float("nan")]
SAMPLED = 8  # seeded draws of (key, other value) per command


def leaves(node, path=()):
    """(path, value) of every dict entry and list slot below node."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from leaves(value, path + (key,))


def mutated(cfg, path, value):
    cfg = copy.deepcopy(cfg)
    node = cfg
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return cfg


def mutations(command):
    """The numeric keys at each extreme, then the seeded sample of the rest."""
    cases, others = [], []
    for base in BASES[command]:
        for path, value in leaves(base):
            numeric = type(value) in (int, float)
            cases += [(base, path, v) for v in EXTREMES if numeric]
            others += [(base, path, v) for v in OTHERS]
    return cases + random.Random(command).sample(others, SAMPLED)


@pytest.mark.parametrize("command", list(BASES))
def test_mutated_config_exits_with_a_documented_code(tmp_path, capsys, command):
    cfg_path = tmp_path / "m.json"
    bad = []
    for base, path, value in mutations(command):
        cfg_path.write_text(json.dumps(mutated(base, path, value)))
        try:
            code = main([command, "--config", str(cfg_path),
                         "--out", str(tmp_path / "o"), "--quiet"])
        except Exception as exc:  # a traceback at the command line
            code = f"{type(exc).__name__}: {exc}"
        err = capsys.readouterr().err
        key = next(k for k in reversed(path) if isinstance(k, str))
        if value in HUGE:
            if code != 4 or repr(key) not in err:
                bad.append((path, value, code, err))
        elif code not in (0, 2, 3, 4):
            bad.append((path, value, code))
    assert not bad
