#!/usr/bin/env python3
"""Write bench/corpus_expected.json, the answers for the corpus workload.

    python3 bench/corpus_table.py

For each corpus diagram under both message strategies and both done modes
it runs ``check --solve both --dot --traces`` once and records the exit
code, each variant's verdict line (states, deadlocks, strong, strong-cyclic,
policy size) and digests of the PDDL, graph, policy and trace files.

The state and deadlock counts are first checked against the independent
token-game interpreter in ``tests/token_game.py``; the script stops if any
variant disagrees. The digests are a regression guard: they pin the output
of the commit that wrote the table.
"""

from __future__ import annotations

import json
import random
import shutil
import sys

import run


def token_game_counts(prog, item: run.Item) -> dict[str, tuple[int, int]]:
    """(states, deadlocks) per problem name, from the token game."""
    sys.path.insert(0, str(run.ROOT / "tests"))
    from token_game import TokenGame

    cli = prog.cli
    config = cli.config_from_args(cli.build_arg_parser().parse_args(item.argv))
    result = cli.translate_file(config.input_path, config)
    game = TokenGame(result.graph, config.done_mode)
    counts = {}
    for problem in result.problems:
        states, edges, _ = game.explore(frozenset(problem.init))
        sources = {s for s, _ in edges}
        deadlocks = sum(1 for s in states if s not in sources and not set(problem.goal) <= s)
        counts[problem.name] = (len(states), deadlocks)
    return counts


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    prog = run.import_program()
    work = run.ROOT / ".bench_run" / "corpus-table"
    table = {}
    try:
        for item in sorted(run.corpus_items(random.Random(0), tiny=False, table={}), key=lambda i: i.key):
            _, _, error, code, stdout, _ = run.execute(prog, item, work)
            if error:
                raise SystemExit(f"{item.key}: {error}")
            variants = run.verdicts(stdout)
            oracle = token_game_counts(prog, item)
            for name, (states, deadlocks, *_rest) in variants.items():
                if oracle[name] != (states, deadlocks):
                    raise SystemExit(f"{item.key} {name}: checker {states, deadlocks}, token game {oracle[name]}")
            table[item.key] = {"exit": code, "variants": variants, "sha": run.digests(work)}
            print(f"{item.key}: exit {code}, {len(variants)} variants agree with the token game")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = run.HERE / "corpus_expected.json"
    rows = [f" {json.dumps(key)}: {json.dumps(table[key], sort_keys=True)}" for key in sorted(table)]
    path.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")
    print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
