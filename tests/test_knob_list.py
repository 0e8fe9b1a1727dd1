#!/usr/bin/env python3
"""Keep the run-knob table and the files that name its knobs in step.

The run settings live in one table, src/core/run_settings.cc.  This
check fails when:

- a table variable is neither unset nor pinned by
  scripts/check_goldens.sh, so an ambient value could leak into the
  golden runs;
- a table variable or flag is missing from README.md's knob table;
- scripts/, run_benches.sh or the CI workflow use a RAMPAGE_* name
  that is not a table row, the RAMPAGE_SANITIZE build option, or
  RAMPAGE_STATS (read by examples/quickstart.cpp).

Run via ctest (registered in tests/CMakeLists.txt) or directly:

    python3 tests/test_knob_list.py
"""

import os
import re
import unittest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

NAME = re.compile(r"RAMPAGE_[A-Z0-9_]+")
NOT_ROWS = {"RAMPAGE_SANITIZE", "RAMPAGE_STATS"}


def read(*parts):
    with open(os.path.join(ROOT, *parts), encoding="utf-8") as f:
        return f.read()


def table_rows():
    """(flags, variables) named by the rows of the settings table."""
    source = read("src", "core", "run_settings.cc")
    body = source[source.index("runSettingRows()"):]
    body = body[:body.index("return rows;")]
    rows = re.findall(r'\{\s*(nullptr|"--[a-z-]+"),\s*'
                      r'(nullptr|"RAMPAGE_[A-Z0-9_]+")', body)
    flags = {f.strip('"') for f, _ in rows if f != "nullptr"}
    envs = {e.strip('"') for _, e in rows if e != "nullptr"}
    return flags, envs


def golden_env():
    """Variables check_goldens.sh unsets or pins with export."""
    script = read("scripts", "check_goldens.sh").replace("\\\n", " ")
    names = set()
    for line in script.splitlines():
        words = line.split()
        if words and words[0] in ("unset", "export"):
            names.update(w for w in words[1:] if NAME.fullmatch(w))
    return names


def readme_knob_table():
    """The README's run-knob table, as text."""
    readme = read("README.md")
    start = readme.index("### Run knobs")
    return readme[start:readme.index("\n## ", start)]


class KnobListTest(unittest.TestCase):
    def setUp(self):
        self.flags, self.envs = table_rows()

    def test_table_parses(self):
        self.assertEqual(len(self.envs), 16, sorted(self.envs))
        self.assertEqual(len(self.flags), 11, sorted(self.flags))

    def test_goldens_unset_or_pin_every_variable(self):
        missing = self.envs - golden_env()
        self.assertFalse(missing, "check_goldens.sh neither unsets nor "
                         "pins: %s" % sorted(missing))

    def test_readme_lists_every_knob(self):
        table = readme_knob_table()
        missing = {k for k in self.envs | self.flags
                   if "`%s" % k not in table}
        self.assertFalse(missing, "README.md knob table lacks: %s"
                         % sorted(missing))

    def test_scripts_use_only_known_names(self):
        used = set()
        paths = [os.path.join("scripts", n)
                 for n in sorted(os.listdir(os.path.join(ROOT, "scripts")))]
        paths += ["run_benches.sh", os.path.join(".github", "workflows",
                                                 "ci.yml")]
        for path in paths:
            for name in NAME.findall(read(path)):
                used.add((name, path))
        unknown = sorted((n, p) for n, p in used
                         if n not in self.envs and n not in NOT_ROWS)
        self.assertFalse(unknown, "RAMPAGE_* names outside the settings "
                         "table: %s" % unknown)


if __name__ == "__main__":
    unittest.main()
