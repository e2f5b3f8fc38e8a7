"""The mutant catalogue: one-snippet edits of ``src/`` that the named tests must kill.

Each entry names the mutant, the file it edits, the exact ``old`` snippet
(which occurs once in that file), its ``new`` replacement and the pytest
ids expected to kill it.  `scripts/mutate.py` applies each mutant to a copy
of the tree and runs its tests there; `tests/test_scripts.py` checks that
every snippet still occurs once, so a change that moves guarded code
updates the catalogue with it.
"""

TOPOLOGY = "src/reachbound/topology.py"
VERIFIER = "src/reachbound/verifier.py"
NODE_TREE = "tests/test_topology.py::test_extraction_matches_the_node_tree"

MUTANTS = [
    # the subset tree (`extract_subset`, `_split_cuts`)
    dict(name="leaf-rule-reads-3", file=TOPOLOGY,
         old="sum(r > 2 for r in np.ix_(*lengths))",
         new="sum(r > 3 for r in np.ix_(*lengths))",
         tests=[NODE_TREE]),
    dict(name="one-part-more-per-split", file=TOPOLOGY,
         old="p = np.ceil(np.sqrt(r)).astype(np.int64)",
         new="p = np.ceil(np.sqrt(r)).astype(np.int64) + 1",
         tests=[NODE_TREE]),
    dict(name="passing-child-stays-to-test", file=TOPOLOGY,
         old="np.where(_passes_row_test(net, lo, hi), _DROPPED, _TO_TEST)",
         new="np.where(_passes_row_test(net, lo, hi), _TO_TEST, _TO_TEST)",
         tests=[NODE_TREE]),
    dict(name="whole-nodes-tested", file=TOPOLOGY,
         old="nodes = np.nonzero(state == _TO_TEST)",
         new="nodes = np.nonzero(state != _DROPPED)",
         tests=[NODE_TREE]),
    dict(name="stop-once-all-dropped", file=TOPOLOGY,  # never stops: killed by the timeout
         old="if not (state == _TO_TEST).any():",
         new="if not (state != _DROPPED).any():",
         tests=[NODE_TREE]),
    # the cell budget
    dict(name="no-count-check", file=TOPOLOGY,
         old="if max([cells, *counts]) > CELL_BUDGET:",
         new="if cells > CELL_BUDGET:",
         tests=["tests/test_topology.py::test_every_builder_refuses_before_it_builds[boundary-1d]",
                "tests/test_verifier.py::test_one_input_faces_stop_refining_at_the_budget"]),
    # the falsifier (`verify`, `monte_carlo`)
    dict(name="falsify-at-every-unknown-level", file=VERIFIER,
         old="if level == 0 and problem.falsify_samples > 0:",
         new="if problem.falsify_samples > 0:",
         tests=["tests/test_verifier.py::test_the_falsifier_runs_at_most_once",
                "tests/test_verifier.py::test_a_sampled_violation_needs_the_point_recheck"]),
    dict(name="no-point-recheck", file=VERIFIER,
         old="if not safe.contains_point(forward_point(net, x))",
         new="if True",
         tests=["tests/test_verifier.py::test_a_sampled_violation_needs_the_point_recheck"]),
    dict(name="violations-read-the-first-output", file=VERIFIER,
         old="zip(images.T, safe.lo, safe.hi)",
         new="zip(images.T[:1], safe.lo, safe.hi)",
         tests=["tests/test_verifier.py::test_monte_carlo_violations_read_every_output"]),
]
