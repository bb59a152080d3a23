"""Set-up as a user pays it: a fresh interpreter imports ``strata`` and
parses a workload's input strings.

Usage: python3 setup_child.py <src directory>  < strings.json
where strings.json is a list of [text, is_context] pairs.
"""

import json
import sys

sys.path.insert(0, sys.argv[1])

from strata.terms import parse, parse_context  # noqa: E402

for text, is_context in json.load(sys.stdin):
    (parse_context if is_context else parse)(text)
