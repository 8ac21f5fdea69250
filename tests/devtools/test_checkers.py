"""Per-checker fixtures: every checker has snippets that must flag and
snippets that must pass, plus pragma-suppression coverage."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.devtools import LintConfig, lint_paths
from repro.devtools.framework import config_with, module_name


def write_module(tmp_path: Path, module: str, code: str) -> Path:
    """Materialize ``code`` as ``module`` inside a package tree so the
    linter sees the right dotted name."""
    parts = module.split(".")
    directory = tmp_path
    for pkg in parts[:-1]:
        directory = directory / pkg
        directory.mkdir(exist_ok=True)
        (directory / "__init__.py").touch()
    path = directory / f"{parts[-1]}.py"
    path.write_text(textwrap.dedent(code))
    return path


def run(tmp_path, checker, code, module="snippet", config=None):
    path = write_module(tmp_path, module, code)
    assert module_name(path) == module
    return lint_paths([path], config or LintConfig(), enabled=[checker])[0]


def codes(violations):
    return sorted({v.code for v in violations})


# ---------------------------------------------------------------------------
# rng-determinism
# ---------------------------------------------------------------------------

RNG_FLAG = [
    ("import random\n", ["RPL101"]),
    ("from random import randint\n", ["RPL101"]),
    ("import numpy as np\nrng = np.random.default_rng()\n", ["RPL102"]),
    ("import numpy as np\nnp.random.seed(7)\n", ["RPL102"]),
    ("import numpy.random\n", ["RPL102"]),
    ("from numpy import random\n", ["RPL102"]),
    ("from numpy.random import default_rng\nr = default_rng(0)\n",
     ["RPL103"]),
    ("from numpy.random import SeedSequence\ns = SeedSequence(3)\n",
     ["RPL103"]),
]

RNG_PASS = [
    "import numpy as np\n\ndef f(rng: np.random.Generator):\n"
    "    return rng.random(3)\n",
    "from numpy.random import Generator\n\ndef f(rng: Generator):\n"
    "    return rng.integers(10)\n",
    "from repro.core.rng import stream\nrng = stream(0, 1)\n",
]


@pytest.mark.parametrize("code,expected", RNG_FLAG)
def test_rng_checker_flags(tmp_path, code, expected):
    found = run(tmp_path, "rng-determinism", code)
    assert codes(found) == expected, found


@pytest.mark.parametrize("code", RNG_PASS)
def test_rng_checker_passes(tmp_path, code):
    assert run(tmp_path, "rng-determinism", code) == []


def test_rng_checker_allows_the_rng_module_itself(tmp_path):
    code = ("import numpy as np\n\n"
            "def stream(seed):\n"
            "    return np.random.default_rng(np.random.SeedSequence([seed]))\n")
    assert run(tmp_path, "rng-determinism", code,
               module="repro.core.rng") == []
    # ... while any other module placement flags the same code.
    assert run(tmp_path, "rng-determinism", code,
               module="repro.core.other") != []


# ---------------------------------------------------------------------------
# layering
# ---------------------------------------------------------------------------

def test_layering_flags_core_importing_dist(tmp_path):
    found = run(tmp_path, "layering",
                "from repro.dist import runner\n", module="repro.core.foo")
    assert codes(found) == ["RPL201"]


def test_layering_flags_relative_import(tmp_path):
    found = run(tmp_path, "layering",
                "from ..dist.external_sort import external_sort_unique\n",
                module="repro.models.foo")
    assert codes(found) == ["RPL201"]
    assert len(found) == 1  # module + attribute flagged once, not twice


def test_layering_flags_plain_import(tmp_path):
    found = run(tmp_path, "layering",
                "import repro.formats.base\n", module="repro.core.foo")
    assert codes(found) == ["RPL201"]


@pytest.mark.parametrize("module,code", [
    ("repro.dist.foo", "from repro.core.rng import stream\n"),
    ("repro.models.foo", "from ..core.seed import SeedMatrix\n"),
    ("repro.models.foo", "from ..util.shuffle import hash_partition\n"),
    ("repro.formats.foo", "from repro.dist import runner\n"),
])
def test_layering_passes_downward_imports(tmp_path, module, code):
    assert run(tmp_path, "layering", code, module=module) == []


# ---------------------------------------------------------------------------
# numerical-safety
# ---------------------------------------------------------------------------

NUM_FLAG = [
    ("def f(prob):\n    return prob == 0.3\n", ["RPL301"]),
    ("def f(x):\n    return x != 0.57\n", ["RPL301"]),
    ("def f(cdf_value, threshold):\n"
     "    return cdf_value == threshold\n", ["RPL301"]),
    ("def f(a):\n    return a == 0.25 + 0.5\n", ["RPL301"]),
    ("from decimal import Decimal\nx = Decimal('0.1') * 0.5\n", ["RPL302"]),
]

NUM_PASS = [
    "def f(p):\n    return p == 0.0\n",
    "def f(p):\n    return p != 1.0\n",
    "def f(prob):\n    return abs(prob - 0.3) < 1e-9\n",
    "def f(n):\n    return n == 3\n",
    "from decimal import Decimal\nx = Decimal('1') / Decimal('3')\n",
]


@pytest.mark.parametrize("code,expected", NUM_FLAG)
def test_numerical_safety_flags(tmp_path, code, expected):
    found = run(tmp_path, "numerical-safety", code)
    assert codes(found) == expected, found


@pytest.mark.parametrize("code", NUM_PASS)
def test_numerical_safety_passes(tmp_path, code):
    assert run(tmp_path, "numerical-safety", code) == []


DECIMAL_ROUNDTRIP = ("from decimal import Decimal\n\n"
                     "def f(value_decimal):\n"
                     "    return float(value_decimal) * 2\n")


def test_decimal_roundtrip_flagged_in_precision_modules(tmp_path):
    found = run(tmp_path, "numerical-safety", DECIMAL_ROUNDTRIP,
                module="repro.core.recvec")
    assert codes(found) == ["RPL302"]


def test_decimal_roundtrip_allowed_outside_precision_modules(tmp_path):
    assert run(tmp_path, "numerical-safety", DECIMAL_ROUNDTRIP,
               module="repro.analysis.foo") == []


# ---------------------------------------------------------------------------
# exception-hygiene
# ---------------------------------------------------------------------------

EXC_FLAG = [
    ("try:\n    pass\nexcept:\n    pass\n", ["RPL401"]),
    ("try:\n    pass\nexcept Exception:\n    pass\n", ["RPL402"]),
    ("try:\n    pass\nexcept BaseException as exc:\n    raise\n", ["RPL402"]),
    ("try:\n    pass\nexcept (ValueError, Exception):\n    pass\n",
     ["RPL402"]),
]

EXC_PASS = [
    "try:\n    pass\nexcept ValueError:\n    pass\n",
    "try:\n    pass\nexcept (OSError, KeyError) as exc:\n    raise\n",
]


@pytest.mark.parametrize("code,expected", EXC_FLAG)
def test_exception_hygiene_flags(tmp_path, code, expected):
    found = run(tmp_path, "exception-hygiene", code)
    assert codes(found) == expected, found


@pytest.mark.parametrize("code", EXC_PASS)
def test_exception_hygiene_passes(tmp_path, code):
    assert run(tmp_path, "exception-hygiene", code) == []


def test_exception_hygiene_respects_allowlist(tmp_path):
    config = config_with(broad_except_allowed=frozenset({"snippet"}))
    assert run(tmp_path, "exception-hygiene", EXC_FLAG[1][0],
               config=config) == []


# ---------------------------------------------------------------------------
# api-completeness
# ---------------------------------------------------------------------------

API_FLAG = [
    ("def public():\n    pass\n", ["RPL501"]),
    ("__all__ = ['missing']\n", ["RPL502"]),
    ("__all__ = ['f']\n\ndef f():\n    pass\n\ndef g():\n    pass\n",
     ["RPL503"]),
    ("__all__ = [n for n in ('a',)]\n", ["RPL504"]),
]

API_PASS = [
    "__all__ = ['f', 'C']\n\ndef f():\n    pass\n\nclass C:\n    pass\n",
    "__all__ = ['stream']\nfrom repro.core.rng import stream\n",
    "CONSTANT = 3\n",                       # constants-only module is exempt
    "__all__ = ['f']\n\ndef f():\n    pass\n\ndef _helper():\n    pass\n",
]


@pytest.mark.parametrize("code,expected", API_FLAG)
def test_api_completeness_flags(tmp_path, code, expected):
    found = run(tmp_path, "api-completeness", code)
    assert codes(found) == expected, found


@pytest.mark.parametrize("code", API_PASS)
def test_api_completeness_passes(tmp_path, code):
    assert run(tmp_path, "api-completeness", code) == []


def test_api_completeness_exempts_dunder_main(tmp_path):
    path = write_module(tmp_path, "pkg.__main__", "def main():\n    pass\n")
    assert lint_paths([path], enabled=["api-completeness"])[0] == []


# ---------------------------------------------------------------------------
# mutable-defaults
# ---------------------------------------------------------------------------

MUT_FLAG = [
    ("def f(x=[]):\n    return x\n", ["RPL601"]),
    ("def f(x={}):\n    return x\n", ["RPL601"]),
    ("def f(x=dict()):\n    return x\n", ["RPL601"]),
    ("def f(*, x=set()):\n    return x\n", ["RPL601"]),
    ("g = lambda x=[]: x\n", ["RPL601"]),
]

MUT_PASS = [
    "def f(x=None):\n    return x or []\n",
    "def f(x=()):\n    return x\n",
    "def f(x=0, y='s'):\n    return x\n",
    "def f(x=frozenset()):\n    return x\n",
]


@pytest.mark.parametrize("code,expected", MUT_FLAG)
def test_mutable_defaults_flags(tmp_path, code, expected):
    found = run(tmp_path, "mutable-defaults", code)
    assert codes(found) == expected, found


@pytest.mark.parametrize("code", MUT_PASS)
def test_mutable_defaults_passes(tmp_path, code):
    assert run(tmp_path, "mutable-defaults", code) == []


# ---------------------------------------------------------------------------
# pragmas
# ---------------------------------------------------------------------------

def test_line_pragma_suppresses_by_name(tmp_path):
    code = "import random  # reprolint: disable=rng-determinism\n"
    assert run(tmp_path, "rng-determinism", code) == []


def test_line_pragma_suppresses_by_code(tmp_path):
    code = "import random  # reprolint: disable=RPL101\n"
    assert run(tmp_path, "rng-determinism", code) == []


def test_line_pragma_only_covers_its_line(tmp_path):
    code = ("import random  # reprolint: disable=all\n"
            "from random import randint\n")
    found = run(tmp_path, "rng-determinism", code)
    assert [v.line for v in found] == [2]


def test_file_pragma_suppresses_one_checker(tmp_path):
    code = ("# reprolint: disable-file=mutable-defaults\n"
            "def f(x=[]):\n    return x\n")
    assert run(tmp_path, "mutable-defaults", code) == []
    # other checkers still run on the same file
    code2 = ("# reprolint: disable-file=mutable-defaults\n"
             "import random\n")
    assert run(tmp_path, "rng-determinism", code2) != []


def test_skip_file_pragma(tmp_path):
    code = ("# reprolint: skip-file\n"
            "import random\n\ndef f(x=[]):\n    return x\n")
    path = write_module(tmp_path, "snippet", code)
    assert lint_paths([path])[0] == []


# ---------------------------------------------------------------------------
# exception-hygiene: pool-timeout rules (RPL403/RPL404)
# ---------------------------------------------------------------------------

POOL_FLAG = [
    ("results = pool.map(work, tasks)\n", ["RPL403"]),
    ("for r in self.pool.imap_unordered(work, tasks):\n    pass\n",
     ["RPL403"]),
    ("out = worker_pool.starmap(work, tasks)\n", ["RPL403"]),
    ("value = result.get()\n", ["RPL404"]),
    ("async_result.get()\n", ["RPL404"]),
]

POOL_PASS = [
    "value = result.get(timeout=30)\n",
    "value = result.get(5)\n",              # positional timeout
    "option = mapping.get('key')\n",        # not a result object
    "pool.close()\n",                       # not a blocking scatter
]


@pytest.mark.parametrize("code,expected", POOL_FLAG)
def test_pool_timeout_flags_in_dist(tmp_path, code, expected):
    found = run(tmp_path, "exception-hygiene", code,
                module="repro.dist.snippet")
    assert codes(found) == expected, found


@pytest.mark.parametrize("code,expected", POOL_FLAG)
def test_pool_timeout_ignored_outside_dist(tmp_path, code, expected):
    assert run(tmp_path, "exception-hygiene", code) == []


@pytest.mark.parametrize("code", POOL_PASS)
def test_pool_timeout_passes_in_dist(tmp_path, code):
    assert run(tmp_path, "exception-hygiene", code,
               module="repro.dist.snippet") == []


def test_pool_timeout_prefixes_configurable(tmp_path):
    config = config_with(pool_timeout_module_prefixes=("mypkg",))
    found = run(tmp_path, "exception-hygiene",
                "pool.map(work, tasks)\n", module="mypkg.runner",
                config=config)
    assert codes(found) == ["RPL403"]


# ---------------------------------------------------------------------------
# telemetry (RPL507/RPL508)
# ---------------------------------------------------------------------------

TELEMETRY_507_FLAG = [
    "import time\nt0 = time.perf_counter()\n",
    "from time import perf_counter\nt0 = perf_counter()\n",
    "import time as t\nelapsed = t.perf_counter() - t0\n",
]

TELEMETRY_507_PASS = [
    "import time\ntime.sleep(0.1)\n",            # scheduling, not timing
    "import time\nnow = time.monotonic()\n",     # throttling is fine
    "from repro.telemetry import span\nwith span('x'):\n    pass\n",
]


@pytest.mark.parametrize("code", TELEMETRY_507_FLAG)
def test_telemetry_flags_perf_counter_in_instrumented_layers(tmp_path, code):
    for module in ("repro.system", "repro.dist.snippet",
                   "repro.formats.snippet"):
        found = run(tmp_path, "telemetry", code, module=module)
        assert codes(found) == ["RPL507"], (module, found)


@pytest.mark.parametrize("code", TELEMETRY_507_PASS)
def test_telemetry_passes_non_timing_clocks(tmp_path, code):
    assert run(tmp_path, "telemetry", code, module="repro.dist.snippet") == []


@pytest.mark.parametrize("code", TELEMETRY_507_FLAG)
def test_telemetry_allows_perf_counter_outside_scope(tmp_path, code):
    # models/ and the telemetry implementation itself may read the clock.
    for module in ("repro.models.snippet", "repro.telemetry.spans"):
        found = [v for v in run(tmp_path, "telemetry", code, module=module)
                 if v.code == "RPL507"]
        assert found == [], (module, found)


def test_telemetry_flags_bare_print_in_library_modules(tmp_path):
    found = run(tmp_path, "telemetry", "print('done')\n",
                module="repro.dist.snippet")
    assert codes(found) == ["RPL508"]


def test_telemetry_allows_print_in_cli_and_devtools(tmp_path):
    for module in ("repro.cli", "repro.devtools.lint"):
        assert run(tmp_path, "telemetry", "print('done')\n",
                   module=module) == []


def test_telemetry_prefixes_configurable(tmp_path):
    config = config_with(
        telemetry_span_module_prefixes=("mypkg",),
        print_allowed_module_prefixes=("mypkg.frontend",))
    found = run(tmp_path, "telemetry",
                "import time\nt0 = time.perf_counter()\nprint(t0)\n",
                module="mypkg.worker", config=config)
    assert codes(found) == ["RPL507", "RPL508"]
    assert run(tmp_path, "telemetry", "print('ok')\n",
               module="mypkg.frontend", config=config) == []


def test_telemetry_pragma_suppression(tmp_path):
    code = ("import time\n"
            "t0 = time.perf_counter()  # reprolint: disable=RPL507\n")
    assert run(tmp_path, "telemetry", code,
               module="repro.dist.snippet") == []


def test_telemetry_layering_rule_blocks_upward_imports(tmp_path):
    found = run(tmp_path, "layering",
                "from repro.formats import get_format\n",
                module="repro.telemetry.export")
    assert codes(found) == ["RPL201"]


# ---------------------------------------------------------------------------
# read-only-introspection (RPL509)
# ---------------------------------------------------------------------------

INTROSPECTION_FLAG = [
    # Generator machinery imports: absolute, from-form, and relative.
    "import repro.core.generator\n",
    "from repro.core import generator\n",
    "from repro.models import RMatModel\n",
    "from ..core.rng import stream\n",
    # RNG construction / draws.
    "def sample(rng_root):\n    s = stream(rng_root, 'flight')\n",
    "def jitter(rng):\n    return rng.random()\n",
    "def pick(rng, n):\n    return rng.integers(n)\n",
    # Registry mutation, including instrument-creating accessors.
    "def tick(reg):\n    reg.counter('flight.ticks').inc()\n",
    "def tick(reg):\n    reg.gauge('flight.rss').set(1)\n",
    "def note(h):\n    h.observe(0.5)\n",
    "def fold(reg, other):\n    reg.merge(other)\n",
    "def clear(reg):\n    reg.reset()\n",
]

INTROSPECTION_PASS = [
    # Read-only views are the sanctioned surface.
    "from repro.telemetry.metrics import global_registry\n"
    "def view():\n    return global_registry().snapshot()\n",
    "from ..spans import tracer\n"
    "def active():\n    return tracer().active_stacks()\n",
    # threading.Event.set() is lifecycle, not a gauge write.
    "import threading\n"
    "ev = threading.Event()\nev.set()\n",
    # Stdlib imports and pure dict shuffling are fine.
    "import json\nimport os\n"
    "def vitals():\n    return dict(os.environ)\n",
]


@pytest.mark.parametrize("code", INTROSPECTION_FLAG)
def test_introspection_flags_in_observer_modules(tmp_path, code):
    for module in ("repro.telemetry.flight", "repro.telemetry.server",
                   "repro.telemetry.traceview"):
        found = [v for v in run(tmp_path, "read-only-introspection",
                                code, module=module)
                 if v.code == "RPL509"]
        assert found, (module, code)


@pytest.mark.parametrize("code", INTROSPECTION_PASS)
def test_introspection_passes_read_only_views(tmp_path, code):
    found = run(tmp_path, "read-only-introspection", code,
                module="repro.telemetry.flight")
    assert found == [], found


@pytest.mark.parametrize("code", INTROSPECTION_FLAG)
def test_introspection_scoped_to_observer_modules(tmp_path, code):
    # The same constructs are legitimate elsewhere (e.g. the registry
    # implementation itself, or generator code).
    for module in ("repro.telemetry.metrics", "repro.core.generator",
                   "repro.system"):
        assert run(tmp_path, "read-only-introspection", code,
                   module=module) == [], (module, code)


def test_introspection_prefixes_configurable(tmp_path):
    config = config_with(
        introspection_module_prefixes=("mypkg.observe",),
        introspection_forbidden_imports=("mypkg.engine",))
    found = run(tmp_path, "read-only-introspection",
                "from mypkg.engine import spin\n",
                module="mypkg.observe.view", config=config)
    assert codes(found) == ["RPL509"]
    assert run(tmp_path, "read-only-introspection",
               "from mypkg.engine import spin\n",
               module="mypkg.other", config=config) == []


def test_introspection_pragma_suppression(tmp_path):
    code = ("def tick(reg):\n"
            "    reg.counter('x').inc()  # reprolint: disable=RPL509\n")
    assert run(tmp_path, "read-only-introspection", code,
               module="repro.telemetry.flight") == []
