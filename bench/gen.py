"""Seeded workload generators for the benchmark.

Each generator returns a list of conversations as plain JSON-compatible
dicts in the workload file layout; the program only ever sees them through
``workload_from_json``. The same (workload, seed) pair always yields the same
conversations, byte for byte.

Every tool's mock state operations are declared in its annotation with the
same path, mode and scope, so no state operation is invisible to the
scheduler and serial equivalence is a fair check. The mock backend addresses
literal paths only, so a templated declaration (``/ws/{dir}/{file}``,
``$session/cwd``) has no state operation of its own: it adds ordering, never
an undeclared effect.

Sizes are stratified rather than drawn independently: every seed gets the
same mix of conversation sizes (burst's fixed class counts, agent-mix's
lengths at fixed quantiles of one log-normal), shuffled and filled with
seed-dependent content. Medians over a run then depend on the shapes the
workload is meant to have, not on how many long conversations a seed drew.
"""

from __future__ import annotations

import math
import random
from statistics import NormalDist

# burst: conversations per class, weighted toward small turns. Cumulative
# shares 0.60 / 0.84 / 0.98 put the 50th and 90th percentiles well inside
# one class each (64 and 256 calls), so they never jump between classes.
BURST_CLASSES = ((64, 60), (128, 24), (256, 14), (512, 2))
BURST_REINDEX_EVERY = 16

AGENT_CONVERSATIONS = 100  # per block
AGENT_TIMED_BLOCKS = 2  # the first blocks are timed; the others only widen
AGENT_BLOCKS = 6  # the virtual-latency sample
AGENT_LENGTH_MEDIAN = 22
AGENT_LENGTH_SIGMA = 0.9
AGENT_LENGTH_RANGE = (8, 250)

WALL_CONVERSATIONS = 100
WALL_LENGTH_RANGE = (4, 12)
WALL_DELAY_SCALE = 0.001

DIRS = ("src", "tests", "docs", "lib")


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # String seeds hash through SHA-512, so this is stable across processes.
    return random.Random(f"{workload}:{seed}:{index}")


def _latency(rng: random.Random, low: float, high: float) -> float:
    # Two decimals: virtual medians differ between seeds instead of sitting
    # on the same integer, and stay exactly reproducible for one seed.
    return round(rng.uniform(low, high), 2)


def _schema(name: str, params: dict, outputs=None) -> dict:
    schema = {
        "name": name,
        "description": f"mock {name}",
        "parameters": {
            p: {"type": t, "description": p, "required": True} for p, t in params.items()
        },
    }
    if outputs is not None:
        schema["outputs"] = outputs
    return schema


def _annotation(reads=(), writes=(), session_read=False, session_write=False, outputs=None):
    return {
        "reads": [{"path": p, "subtree": s} for p, s in reads],
        "writes": [{"path": p, "subtree": s} for p, s in writes],
        "session_read": session_read,
        "session_write": session_write,
        "outputs": outputs,
    }


# -- burst -------------------------------------------------------------------


def burst_conversation(n: int, rng: random.Random) -> dict:
    """One parallel turn of n calls, then a final answer gated on all of them.

    Every 16th call is a ``reindex`` writing the /catalog subtree; the rest are
    ``put_item`` calls reading that subtree and writing their own item. One
    call fails by injection.
    """
    emit = []
    put_latency: list[int] = []
    reindex_latency: list[int] = []
    for k in range(n):
        call_id = f"C{k}"
        if k % BURST_REINDEX_EVERY == BURST_REINDEX_EVERY - 1:
            emit.append({"id": call_id, "name": "reindex", "args": {"epoch": k // BURST_REINDEX_EVERY}})
            reindex_latency.append(_latency(rng, 2, 4))
        else:
            emit.append(
                {"id": call_id, "name": "put_item", "args": {"file": f"item{k}", "qty": rng.randint(1, 9)}}
            )
            put_latency.append(_latency(rng, 1, 6))
    failing = rng.randrange(n)
    fail_tool = emit[failing]["name"]
    fail_index = sum(1 for c in emit[:failing] if c["name"] == fail_tool)
    tools = [
        {
            "schema": _schema("put_item", {"file": "string", "qty": "integer"}),
            "annotation": _annotation(
                reads=[("/catalog", True)], writes=[("/items/{file}", False)]
            ),
            "latency": put_latency,
            "state": {"reads": [{"path": "/catalog", "subtree": True}]},
        },
        {
            "schema": _schema("reindex", {"epoch": "integer"}),
            "annotation": _annotation(writes=[("/catalog", True)]),
            "latency": reindex_latency or [2],
            "state": {"writes": [{"path": "/catalog", "value": "{call}|{args}"}]},
        },
    ]
    for tool in tools:
        if tool["schema"]["name"] == fail_tool:
            tool["error_at"] = {str(fail_index): "injected failure"}
    return {
        "task": f"Stock {n} items.",
        "tools": tools,
        "script": [
            {"emit": emit, "decode_time": 1 + n / 32},
            {"when": {"resolved": [c["id"] for c in emit]}, "final": "stocked", "decode_time": 1},
        ],
        "delay_scale": 1.0,
        "context_budget": 2 * n + 16,
    }


def burst(seed: int) -> list[dict]:
    sizes = [n for n, count in BURST_CLASSES for _ in range(count)]
    random.Random(f"burst:{seed}:order").shuffle(sizes)
    return [burst_conversation(n, _rng("burst", seed, i)) for i, n in enumerate(sizes)]


# -- agent-mix ---------------------------------------------------------------

SEARCH_OUTPUTS = {"dir": "", "file": "", "hits": 0}


def agent_tools() -> list[dict]:
    """A coding agent's tools over a /ws workspace and a session cwd."""
    return [
        {
            "schema": _schema("read_file", {"dir": "string", "file": "string"}),
            "annotation": _annotation(reads=[("/ws/{dir}/{file}", False)]),
        },
        {
            "schema": _schema("list_dir", {"dir": "string"}),
            "annotation": _annotation(reads=[("/ws/{dir}", True)]),
        },
        {
            "schema": _schema("write_file", {"dir": "string", "file": "string", "text": "string"}),
            "annotation": _annotation(
                writes=[("/ws/{dir}/{file}", False), ("/ws/journal", False)]
            ),
            "state": {"writes": [{"path": "/ws/journal", "value": "{call}|{args}"}]},
        },
        {
            "schema": _schema("search", {"query": "string"}, outputs=SEARCH_OUTPUTS),
            "annotation": _annotation(reads=[("/ws", True)], outputs=SEARCH_OUTPUTS),
            "state": {"reads": [{"path": "/ws", "subtree": True}]},
        },
        {
            "schema": _schema("cd", {"dir": "string"}),
            "annotation": _annotation(session_write=True),
        },
        {
            "schema": _schema("run_tests", {"target": "string"}),
            "annotation": _annotation(
                reads=[("$session/cwd", True), ("/ws/journal", False)],
                writes=[("/ws/report", False)],
                session_read=True,
            ),
            "state": {
                "reads": [{"path": "/ws/journal"}],
                "writes": [{"path": "/ws/report", "value": "{call}|{reads}"}],
            },
        },
    ]


# name: (weight in the call mix, latency range in units)
TOOL_MIX = {
    "read_file": (30, (1, 3)),
    "list_dir": (10, (1, 3)),
    "write_file": (22, (2, 4)),
    "search": (16, (3, 8)),
    "cd": (6, (0.5, 1.5)),
    "run_tests": (8, (8, 20)),
}


def agent_conversation(length: int, rng: random.Random, fail: bool) -> dict:
    """Turns of 1-4 calls until ``length`` calls, then a final answer.

    Searches return a (dir, file) location; later calls may take it through
    ``@Sk.dir`` / ``@Sk.file`` references, which feed path templates while
    the search is still pending. Some turns wait on an earlier result, some
    await futures explicitly. With ``fail``, one call no reference consumes
    fails by injection.
    """
    # Tool mix and turn sizes come from shuffled decks rather than independent
    # draws, so conversations of one length differ in order, not in makeup.
    total = sum(w for w, _ in TOOL_MIX.values())
    names = [n for n, (w, _) in TOOL_MIX.items() for _ in range(math.ceil(length * w / total))]
    rng.shuffle(names)
    sizes = [1, 2, 3, 4] * math.ceil(length / 4)
    rng.shuffle(sizes)
    latencies: dict[str, list[float]] = {name: [] for name in TOOL_MIX}
    script: list[dict] = []
    calls: list[dict] = []
    searches: list[str] = []  # ids of searches emitted in earlier turns
    search_returns: list[dict] = []
    cd_returns: list[dict] = []
    referenced: set[str] = set()
    emitted = 0
    awaits = 0
    while emitted < length:
        turn_calls = []
        for _ in range(min(sizes.pop(), length - emitted)):
            name = names[emitted]
            call_id = f"F{emitted}"
            emitted += 1
            latencies[name].append(_latency(rng, *TOOL_MIX[name][1]))
            args: dict
            if name in ("read_file", "write_file", "list_dir"):
                args = {"dir": rng.choice(DIRS), "file": f"m{rng.randrange(12)}.py"}
                if searches and rng.random() < 0.35:
                    src = rng.choice(searches)
                    args = {"dir": f"@{src}.dir", "file": f"@{src}.file"}
                    referenced.add(src)
                if name == "list_dir":
                    args.pop("file")
                if name == "write_file":
                    args["text"] = f"patch {rng.randrange(1000)}"
            elif name == "search":
                args = {"query": f"symbol{rng.randrange(50)}"}
                search_returns.append(
                    {"dir": rng.choice(DIRS), "file": f"m{rng.randrange(12)}.py", "hits": rng.randint(1, 9)}
                )
            elif name == "cd":
                target = rng.choice(DIRS)
                args = {"dir": target}
                cd_returns.append({"cwd": f"/ws/{target}"})
            else:
                args = {"target": rng.choice(("unit", "all"))}
            turn_calls.append({"id": call_id, "name": name, "args": args})
        turn: dict = {"emit": turn_calls, "decode_time": _latency(rng, 0.5, 3)}
        if calls and rng.random() < 0.15:
            wait_on = rng.choice(calls[-8:])["id"]
            turn["when"] = {"resolved": [wait_on]}
        script.append(turn)
        calls.extend(turn_calls)
        searches.extend(c["id"] for c in turn_calls if c["name"] == "search")
        if rng.random() < 0.06:
            target = rng.choice(calls[-6:])["id"]
            script.append(
                {
                    "emit": [
                        {"id": f"A{awaits}", "name": "await_future", "args": {"future_ids": [f"@{target}"]}}
                    ],
                    "decode_time": 1,
                }
            )
            awaits += 1
    tools = agent_tools()
    by_name = {t["schema"]["name"]: t for t in tools}
    for name, tool in by_name.items():
        tool["latency"] = latencies[name] or 1
    if search_returns:
        by_name["search"]["returns"] = search_returns
    if cd_returns:
        by_name["cd"]["returns"] = cd_returns
    if fail:
        # A failed producer whose fields feed a later path template cannot be
        # run in sync modes (the template would receive an error object), so
        # only unreferenced calls fail.
        candidates = [c for c in calls if c["id"] not in referenced]
        victim = rng.choice(candidates)
        index = sum(1 for c in calls[: calls.index(victim)] if c["name"] == victim["name"])
        by_name[victim["name"]]["error_at"] = {str(index): "injected failure"}
    script.append(
        {"when": {"resolved": [c["id"] for c in calls]}, "final": "task complete", "decode_time": 2}
    )
    return {
        "task": "Fix the failing test.",
        "tools": tools,
        "script": script,
        "delay_scale": 1.0,
        "context_budget": 4 * length + 64,
        "session_bindings": {"cwd": "/ws"},
    }


def _stratified_lengths(count: int, lo: int, hi: int, median: float, sigma: float) -> list[int]:
    dist = NormalDist()
    out = []
    for i in range(count):
        z = dist.inv_cdf((i + 0.5) / count)
        out.append(min(hi, max(lo, round(median * math.exp(sigma * z)))))
    return out


def agent_mix(seed: int, count: int = AGENT_CONVERSATIONS, blocks: int = AGENT_BLOCKS) -> list[dict]:
    """``blocks`` blocks of ``count`` conversations, each block stratified."""
    lengths = _stratified_lengths(count, *AGENT_LENGTH_RANGE, AGENT_LENGTH_MEDIAN, AGENT_LENGTH_SIGMA)
    out = []
    for block in range(blocks):
        # Every fifth conversation carries one injected failure: 20% of them.
        plan = [(n, i % 5 == 0) for i, n in enumerate(lengths)]
        random.Random(f"agent-mix:{seed}:order:{block}").shuffle(plan)
        out += [
            agent_conversation(n, _rng("agent-mix", seed, block * count + i), fail)
            for i, (n, fail) in enumerate(plan)
        ]
    return out


def wall(seed: int, count: int = WALL_CONVERSATIONS) -> list[dict]:
    lo, hi = WALL_LENGTH_RANGE
    plan = [(lo + i % (hi - lo + 1), i % 5 == 0) for i in range(count)]
    random.Random(f"wall:{seed}:order").shuffle(plan)
    out = []
    for i, (n, fail) in enumerate(plan):
        conv = agent_conversation(n, _rng("wall", seed, i), fail)
        conv["delay_scale"] = WALL_DELAY_SCALE
        out.append(conv)
    return out


GENERATORS = {"burst": burst, "agent-mix": agent_mix, "wall": wall}
