"""CLI narration, pinned: the progress lines each serving command prints.

``eric sweep`` (cold, warm and ``--shards 2``), ``eric worker``,
``eric serve`` and ``eric daemon --once`` narrate their stages as
``  [stage] subject: detail (duration)`` lines.  This test keeps those
lines, masks what varies from run to run (durations, the daemon's
``in N ms`` total and its 16-hex request ids), sorts them because
concurrent emitters interleave, and compares the result with a fixed
list — so a refactor of the event plumbing cannot silently change what
an operator reads.
"""

import json
import re

from repro.cli import main
from repro.farm import load_shard

SOURCE = """
int main() {
    print_str("cli says hi\\n");
    return 3;
}
"""

SWEEP = {
    "programs": [
        {"name": "hello", "source": SOURCE},
        {"name": "answer",
         "source": "int main() { print_int(42); return 0; }\n"},
    ],
    "simulate": False,
}

FLEETS = {"fleets": [
    {"name": "alpha", "programs": [{"name": "probe", "source": SOURCE}],
     "device_seeds": [1, 2], "simulate": False},
    {"name": "beta", "programs": [{"name": "probe", "source": SOURCE}],
     "device_seeds": [2, 3], "simulate": False},
]}

EXPECTED = [
    # eric sweep, cold
    "  [farm.job] answer: executed (<t>)",
    "  [farm.job] hello: executed (<t>)",
    # eric sweep, warm
    "  [farm.job] answer: store hit (<t>)",
    "  [farm.job] hello: store hit (<t>)",
    # eric sweep --shards 2
    "  [farm.shard]: shard 1/2: 1 job(s), 1 executed, "
    "0 shard-store hit(s), 0 failed (<t>)",
    "  [farm.shard]: shard 2/2: 1 job(s), 1 executed, "
    "0 shard-store hit(s), 0 failed (<t>)",
    # eric serve
    "  [scheduler.fleet.begin] alpha: 2 job(s) (<t>)",
    "  [scheduler.fleet.begin] beta: 2 job(s) (<t>)",
    "  [scheduler.batch]: 3 unique job(s): 0 hit(s), 3 executed, "
    "0 failed (<t>)",
    "  [scheduler.fleet] alpha: 0 store hit(s), 0 failed (<t>)",
    "  [scheduler.fleet] beta: 0 store hit(s), 0 failed (<t>)",
    "  [scheduler.serve]: 2 fleet(s): 4 requested, 3 executed, "
    "0 store hit(s) (<t>)",
    # eric daemon --once
    "  [daemon.admit] alpha: request <id> priority 0 (2 job(s), "
    "tenant default) (<t>)",
    "  [daemon.admit] beta: request <id> priority 0 (2 job(s), "
    "tenant default) (<t>)",
    "  [daemon.request] alpha: request <id> done: 2 job(s), "
    "0 store hit(s), 0 failed (<t>)",
    "  [daemon.request] beta: request <id> done: 2 job(s), "
    "0 store hit(s), 0 failed (<t>)",
    "  [daemon.serve]: daemon: 0 resumed, 2 admitted, 0 deferred, "
    "0 rejected; 2 done, 0 failed, 0 checkpointed; 3 executed, "
    "0 store hit(s), peak 4 pending job(s) in <t> (<t>)",
]

DURATION = re.compile(r"\(\d+\.\d (?:ms|s)\)")
TOTAL = re.compile(r"in \d+\.\d ms")
REQUEST_ID = re.compile(r"\b[0-9a-f]{16}\b")


def narration(text: str) -> list[str]:
    lines = []
    for line in text.splitlines():
        if not line.startswith("  ["):
            continue
        line = DURATION.sub("(<t>)", line)
        line = TOTAL.sub("in <t>", line)
        lines.append(REQUEST_ID.sub("<id>", line))
    return lines


def test_serving_commands_narrate_the_pinned_lines(tmp_path, capsys):
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps(SWEEP))
    fleets = tmp_path / "fleets.json"
    fleets.write_text(json.dumps(FLEETS))
    sharded = tmp_path / "sharded"
    shard = sharded / "shards" / "shard-00" / "shard.json"
    commands = [
        ["sweep", str(sweep), "--store", str(tmp_path / "farm")],
        ["sweep", str(sweep), "--store", str(tmp_path / "farm")],
        ["sweep", str(sweep), "--store", str(sharded), "--shards", "2"],
        ["worker", str(shard), "--store", str(tmp_path / "remote")],
        ["serve", "--fleets", str(fleets),
         "--store", str(tmp_path / "served")],
        ["daemon", "--journal", str(tmp_path / "journal"),
         "--fleets", str(fleets), "--store", str(tmp_path / "daemon"),
         "--once"],
    ]
    lines = []
    for argv in commands:
        assert main(argv) == 0, argv
        lines += narration(capsys.readouterr().out)
    # eric worker narrates the one job of whichever program the key
    # partition put into the first shard
    [job] = load_shard(shard).jobs
    worker = f"  [farm.job] {job.display_name}: executed (<t>)"
    assert sorted(lines) == sorted(EXPECTED + [worker])
    # none of these runs was traced: no trace file anywhere, shard
    # stores and the journal directory included
    assert not list(tmp_path.rglob("trace.jsonl"))
