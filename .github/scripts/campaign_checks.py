#!/usr/bin/env python3
"""Campaign artifact checks shared by the CI jobs.

    campaign_checks.py same-bugs BASE OUT
        BASE/campaign.json and OUT/campaign.json report the same unique-bug
        set, and the baseline found at least one bug (an empty set would make
        the comparison vacuous).

    campaign_checks.py no-double-count JOURNAL...
        No journal records a (round, module) run more than once.

Exits 1 with a message when a check fails.
"""

import collections
import json
import sys


def bugs(out_dir):
    with open(f"{out_dir}/campaign.json") as f:
        doc = json.load(f)
    return sorted(tuple(bug["pair"]) for bug in doc["unique_bugs"])


def same_bugs(base_dir, out_dir):
    base = bugs(base_dir)
    out = bugs(out_dir)
    assert base, "baseline found no bugs; the comparison would be vacuous"
    assert base == out, f"bug sets differ:\nbase={base}\nout ={out}"
    print(f"bug sets match: {len(base)} unique bugs")


def no_double_count(journals):
    for path in journals:
        runs = collections.Counter()
        with open(path) as f:
            for line in f:
                record = json.loads(line)
                if record.get("type") == "run":
                    runs[(record["round"], record["module_index"])] += 1
        dups = [key for key, n in runs.items() if n > 1]
        assert not dups, f"{path}: double-counted runs {dups}"
        print(f"{path}: {sum(runs.values())} runs, none double-counted")


def main(argv):
    if len(argv) == 3 and argv[0] == "same-bugs":
        same_bugs(argv[1], argv[2])
    elif len(argv) >= 2 and argv[0] == "no-double-count":
        no_double_count(argv[1:])
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    try:
        main(sys.argv[1:])
    except AssertionError as failure:
        sys.exit(f"campaign_checks: {failure}")
