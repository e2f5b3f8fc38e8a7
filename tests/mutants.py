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
INTERVALS = "src/reachbound/intervals.py"
DOMAINS = "src/reachbound/domains.py"
REPORTS = "src/reachbound/reports.py"
NODE_TREE = "tests/test_topology.py::test_extraction_matches_the_node_tree"

MUTANTS = [
    # the subset tree (`extract_subset`, `_split_cuts`)
    dict(name="ring-starts-to-test", file=TOPOLOGY,
         old="state = np.full([len(c) - 1 for c in cuts], _WHOLE, dtype=np.int8)",
         new="state = np.full([len(c) - 1 for c in cuts], _TO_TEST, dtype=np.int8)",
         tests=["tests/test_topology.py::test_extraction_linear_keeps_only_boundary_ring"]),
    dict(name="leaf-sized-root-tested", file=TOPOLOGY,
         old="if inner and max(grid.counts) > 4:",
         new="if inner:",
         tests=["tests/test_topology.py::"
                "test_extraction_singular_gradient_free_net_drops_its_interior"]),
    dict(name="leaf-rule-reads-3", file=TOPOLOGY,
         old="np.diff(c)[i] <= 2",
         new="np.diff(c)[i] <= 3",
         tests=[NODE_TREE]),
    dict(name="one-part-more-per-split", file=TOPOLOGY,
         old="p = np.ceil(np.sqrt(r)).astype(np.int64)",
         new="p = np.ceil(np.sqrt(r)).astype(np.int64) + 1",
         tests=[NODE_TREE]),
    dict(name="passing-child-stays-to-test", file=TOPOLOGY,  # takes a failing child's state
         old="np.where(_passes_row_test(net, lo, hi), _DROPPED, failed)",
         new="np.where(_passes_row_test(net, lo, hi), failed, failed)",
         tests=[NODE_TREE]),
    dict(name="whole-nodes-tested", file=TOPOLOGY,
         old="nodes = np.nonzero(state == _TO_TEST)",
         new="nodes = np.nonzero(state != _DROPPED)",
         tests=[NODE_TREE]),
    dict(name="stop-once-all-dropped", file=TOPOLOGY,  # never stops: killed by the timeout
         old="while (state == _TO_TEST).any():",
         new="while (state != _DROPPED).any():",
         tests=[NODE_TREE]),
    # the grid's cells and the cell budget
    dict(name="grid-hi-reads-low-edges", file=TOPOLOGY,
         old="hi[..., k] = self.edges(k)[1:].reshape(axis)",
         new="hi[..., k] = self.edges(k)[:-1].reshape(axis)",
         tests=["tests/test_topology.py::test_grid_cell_bounds_are_the_gathered_edges"]),
    dict(name="no-count-check", file=TOPOLOGY,
         old="if max([cells, *counts]) > CELL_BUDGET:",
         new="if cells > CELL_BUDGET:",
         tests=["tests/test_topology.py::test_every_builder_refuses_before_it_builds[boundary-1d]"]),
    dict(name="no-budget-check-in-bounds-arrays", file=TOPOLOGY,
         old='_refuse_past_budget(self.total, "grid", self.counts)',
         new="pass",
         tests=["tests/test_topology.py::test_bounds_arrays_refuses_a_grid_past_the_budget"]),
    # the refinement loop (`verify`)
    dict(name="one-input-faces-refined", file=VERIFIER,
         old='> (path == "boundary")',
         new="> 0",
         tests=["tests/test_verifier.py::test_one_input_faces_stop_refining_at_the_budget"]),
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
    # the interval kernels and the zonotope affine map
    dict(name="bias-leftover-rows-dropped", file=INTERVALS,
         old="rows[body:] += tile[:n - body]",
         new="pass",
         tests=["tests/test_intervals.py::test_bias_add_bits_match_the_broadcast"]),
    dict(name="pad-without-tiny", file=INTERVALS,
         old="pad += _TINY",
         new="pad += 0.0",
         tests=["tests/test_intervals.py::test_pad_covers_nextafter_passes"]),
    dict(name="zono-affine-without-copy", file=DOMAINS,
         old="_affine_rows(z.rows.copy(),",
         new="_affine_rows(z.rows,",
         tests=["tests/test_domains.py::test_zono_affine_hull_inside_interval_matvec"]),
    # the plot
    dict(name="render-svg-plots-non-finite", file=REPORTS,
         old="if not all(np.isfinite(a).all() for a in arrays):",
         new="if False:",
         tests=["tests/test_cli.py::test_render_svg_refuses_a_non_finite_value"]),
]
