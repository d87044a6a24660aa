//! Dataflow-graph IR for the work-stealing executor.
//!
//! A planned statement becomes an explicit graph the shared scheduler
//! ([`crate::scheduler`]) executes: a linear chain of [`DataflowNode`]s
//! connected by *edges* — bounded queues of line-aligned
//! [`kq_stream::Bytes`] chunks — where edge `i` carries node `i`'s output
//! into node `i + 1` and the last node's edge drains into the statement
//! sink.
//!
//! # Node semantics
//!
//! | node | input | output | parallelism |
//! |---|---|---|---|
//! | [`NodeKind::Split`] | the statement's gathered input | line-aligned chunks, cut lazily | one task at a time |
//! | [`NodeKind::StageWorker`] | chunks | per-chunk outputs of a chunk-local command run, re-normalized by an incremental chunker and forwarded **in input order** | one scheduler task per chunk, any number in flight |
//! | [`NodeKind::Fold`] ([`FoldMode::Combine`]) | chunks | the stage's synthesized combiner folded over per-chunk outputs in input order; only the combined stream moves on, re-chunked | per-chunk map tasks in parallel, the fold itself in arrival order |
//! | [`NodeKind::Fold`] ([`FoldMode::Gather`]) | chunks | the command run once over the gathered input, re-chunked | one task at a time |
//! | [`NodeKind::BoundedConsumer`] | chunks, **in stream order**, only until `lines` complete lines exist | the command run once on the prefix, re-chunked | one task at a time |
//!
//! # Fusion rewrite
//!
//! The graph is first built *unfused* — one node per planned stage — and
//! adjacent chunk-local stages are then merged by a graph rewrite
//! ([`DataflowGraph::fuse_streamable`]): two neighboring
//! [`NodeKind::StageWorker`] nodes collapse into one whose stage range is
//! the concatenation, eliminating the edge between them (`grep | tr | cut`
//! becomes a single node piping each chunk through all three commands).
//! The rewrite is semantics-preserving by the chunk-local property — each
//! stage's combiner is plain concat over newline-terminated chunk outputs,
//! so per-chunk composition commutes with concatenation.
//!
//! # Cancellation propagation
//!
//! Early exit is edge teardown propagated through the graph. When a
//! [`NodeKind::BoundedConsumer`] at position `b` meets its `lines` demand
//! before its input closes, the scheduler marks nodes `0..b` cancelled and
//! **clears** every edge feeding them *and* the bounded node's own input
//! edge — chunks already queued are dropped, not processed. In-flight
//! tasks at cancelled nodes discard their output when they complete. The
//! propagation matrix:
//!
//! | event | upstream nodes | queued chunks | downstream nodes | statement result |
//! |---|---|---|---|---|
//! | **bound satisfied** | cancelled; telemetry keeps the work actually done | dropped from every edge at or above the bound | receive the bounded stage's re-chunked prefix output, then end-of-input | `Ok`, with `StageTiming::early_exit` set |
//! | **command error** | cancelled | dropped from every edge of the statement | cancelled | the statement's first recorded error surfaces |
//! | **sibling statement error** | statements already running finish their own way; statements still waiting on dependencies are abandoned | — | — | the lowest-indexed failing statement's error surfaces |
//!
//! # Demand propagation
//!
//! [`DataflowNode::eager_flush`]: a `StageWorker` whose downstream chain
//! reaches a bounded consumer through chunk-local nodes only ships
//! complete lines immediately instead of re-normalizing to the
//! chunk-size target, so a sparse stage (`grep` with one match) cannot sit
//! on the very lines that would satisfy the bound.

use crate::plan::{PlannedStage, PlannedStatement, StageMode};
use std::ops::Range;

/// What a [`NodeKind::Fold`] node does with its gathered input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FoldMode {
    /// A parallel stage whose combiner is not plain concat (`sort`,
    /// `uniq -c`, `wc`): chunks map through the command in parallel and
    /// the outputs fold through the synthesized combiner in input order.
    Combine,
    /// A sequential stage (no combiner, or a rerun that does not pay):
    /// chunks gather into a rope and the command runs once.
    Gather,
}

/// The operation a dataflow node performs (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// Cuts the statement input into line-aligned chunks.
    Split,
    /// A run of chunk-local stages: each chunk pipes through the run's
    /// commands independently; outputs flow on uncombined (Theorem 5
    /// applied per chunk).
    StageWorker,
    /// A stage that must see its whole input before emitting.
    Fold {
        /// How the gathered input turns into output.
        mode: FoldMode,
    },
    /// A prefix-bounded stage (`head -n k`, `sed kq`): consumes in-order
    /// chunks only until `lines` complete lines exist, then cancels
    /// everything upstream and runs the command once on the prefix.
    BoundedConsumer {
        /// The stage's prefix bound in complete lines.
        lines: usize,
    },
}

impl NodeKind {
    /// The node one planned stage becomes before fusion:
    ///
    /// * a prefix-bounded stage (`head -n k`, `sed kq` — see
    ///   [`PlannedStage::line_bound`]) is a [`NodeKind::BoundedConsumer`]
    ///   whatever its mode (checked first: a prefix-bounded command is
    ///   never chunk-local anyway);
    /// * a [`streamable`](PlannedStage::streamable) stage is a
    ///   [`NodeKind::StageWorker`];
    /// * any other parallel stage (`sort`, `uniq -c`, `wc`, …) folds its
    ///   chunk outputs through its combiner ([`FoldMode::Combine`]);
    /// * a sequential stage gathers its input and runs once
    ///   ([`FoldMode::Gather`]).
    pub fn for_stage(stage: &PlannedStage) -> NodeKind {
        if let Some(lines) = stage.line_bound {
            NodeKind::BoundedConsumer { lines }
        } else if stage.streamable {
            NodeKind::StageWorker
        } else {
            let mode = match stage.mode {
                StageMode::Sequential => FoldMode::Gather,
                StageMode::Parallel { .. } => FoldMode::Combine,
            };
            NodeKind::Fold { mode }
        }
    }
}

/// One node of a statement's dataflow graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataflowNode {
    /// The operation.
    pub kind: NodeKind,
    /// Stage index range within the statement (`start..end`, end
    /// exclusive). Empty (`0..0`) for [`NodeKind::Split`]; length > 1 only
    /// for fused [`NodeKind::StageWorker`] runs.
    pub stages: Range<usize>,
    /// Demand propagation: this node's output chain reaches a
    /// [`NodeKind::BoundedConsumer`] through chunk-local nodes only, so
    /// complete lines must ship immediately (see the [module docs](self)).
    pub eager_flush: bool,
}

/// A statement's dataflow graph: a linear node chain; edge `i` connects
/// node `i` to node `i + 1`, and the last node feeds the statement sink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataflowGraph {
    /// The nodes, in stream order. `nodes[0]` is always [`NodeKind::Split`].
    pub nodes: Vec<DataflowNode>,
}

impl DataflowGraph {
    /// Builds the graph for one planned statement.
    ///
    /// The graph is assembled unfused — one node per stage — and, with
    /// `fuse_streamable`, adjacent [`NodeKind::StageWorker`] nodes are then
    /// merged by the [fusion rewrite](Self::fuse_streamable).
    pub fn build(planned: &PlannedStatement, fuse_streamable: bool) -> DataflowGraph {
        let mut nodes = vec![DataflowNode {
            kind: NodeKind::Split,
            stages: 0..0,
            eager_flush: false,
        }];
        for (idx, stage) in planned.stages.iter().enumerate() {
            nodes.push(DataflowNode {
                kind: NodeKind::for_stage(stage),
                stages: idx..idx + 1,
                eager_flush: false,
            });
        }
        let mut graph = DataflowGraph { nodes };
        if fuse_streamable {
            graph.fuse_streamable();
        }
        graph.compute_eager_flush();
        graph
    }

    /// The fusion rewrite: merges every adjacent pair of
    /// [`NodeKind::StageWorker`] nodes into one node spanning both stage
    /// ranges, deleting the edge between them. Applied to fixpoint, this
    /// turns each maximal run of chunk-local stages into a single node.
    pub fn fuse_streamable(&mut self) {
        let mut i = 0;
        while i + 1 < self.nodes.len() {
            let fusable = self.nodes[i].kind == NodeKind::StageWorker
                && self.nodes[i + 1].kind == NodeKind::StageWorker;
            if fusable {
                debug_assert_eq!(self.nodes[i].stages.end, self.nodes[i + 1].stages.start);
                self.nodes[i].stages.end = self.nodes[i + 1].stages.end;
                self.nodes.remove(i + 1);
            } else {
                i += 1;
            }
        }
    }

    /// Checks the structural invariants every well-formed statement graph
    /// satisfies, returning one human-readable violation per breach (empty
    /// means valid). The scheduler asserts this under `debug_assertions`
    /// right after building its graphs, and `kumquat check` runs it as the
    /// graph-verification layer of static analysis.
    ///
    /// Invariants:
    ///
    /// 1. the graph starts with exactly one [`NodeKind::Split`] owning no
    ///    stages, and no other `Split` appears;
    /// 2. the remaining nodes' stage ranges partition `0..n_stages`
    ///    contiguously and in order — no gap, overlap, or inversion;
    /// 3. only [`NodeKind::StageWorker`] nodes (fused chunk-local runs) may
    ///    span more than one stage;
    /// 4. [`DataflowNode::eager_flush`] agrees with the canonical
    ///    right-to-left demand propagation — a stale flag after a rewrite
    ///    would let a sparse stage sit on the lines a bounded consumer
    ///    needs;
    /// 5. every edge carries at least one chunk of queue credit
    ///    (`queue_seed >= 1`) — a [`NodeKind::Fold`] buffers its whole
    ///    input before emitting, so a zero-credit edge upstream of a fold
    ///    deadlocks the statement.
    pub fn validate(&self, n_stages: usize, queue_seed: usize) -> Vec<String> {
        let mut problems = Vec::new();
        match self.nodes.first() {
            Some(n) if n.kind == NodeKind::Split && n.stages == (0..0) => {}
            Some(n) => problems.push(format!(
                "node 0 must be a Split owning no stages, got {:?} over stages {:?}",
                n.kind, n.stages
            )),
            None => problems.push("graph has no nodes".to_owned()),
        }
        let mut cursor = 0usize;
        for (i, node) in self.nodes.iter().enumerate().skip(1) {
            if node.kind == NodeKind::Split {
                problems.push(format!("node {i} is a Split; only node 0 may split"));
                continue;
            }
            if node.stages.start != cursor {
                problems.push(format!(
                    "node {i} covers stages {:?} but the previous node ended at stage {cursor}",
                    node.stages
                ));
            }
            if node.stages.end <= node.stages.start {
                problems.push(format!(
                    "node {i} ({:?}) owns an empty or inverted stage range {:?}",
                    node.kind, node.stages
                ));
            }
            if node.stages.len() > 1 && node.kind != NodeKind::StageWorker {
                problems.push(format!(
                    "node {i} ({:?}) spans stages {:?}; only fused StageWorker runs may \
                     span more than one stage",
                    node.kind, node.stages
                ));
            }
            cursor = cursor.max(node.stages.end);
        }
        if cursor != n_stages {
            problems.push(format!(
                "graph covers stages 0..{cursor} but the statement has {n_stages} stage(s)"
            ));
        }
        let mut canonical = self.clone();
        canonical.compute_eager_flush();
        for (i, (have, want)) in self.nodes.iter().zip(&canonical.nodes).enumerate() {
            if have.eager_flush != want.eager_flush {
                problems.push(format!(
                    "node {i} has eager_flush={} but demand propagation requires {}",
                    have.eager_flush, want.eager_flush
                ));
            }
        }
        if queue_seed == 0 && self.nodes.len() > 1 {
            problems.push(
                "queue credit is 0: no edge can carry a chunk, so every fold deadlocks".to_owned(),
            );
        }
        problems
    }

    /// Recomputes [`DataflowNode::eager_flush`] right-to-left: a node
    /// flushes eagerly when its successor is a bounded consumer, or is a
    /// chunk-local node that itself flushes eagerly. Folds need their whole
    /// input regardless, so the propagation stops there.
    fn compute_eager_flush(&mut self) {
        for i in (0..self.nodes.len().saturating_sub(1)).rev() {
            self.nodes[i].eager_flush = match self.nodes[i + 1].kind {
                NodeKind::BoundedConsumer { .. } => true,
                NodeKind::StageWorker => self.nodes[i + 1].eager_flush,
                NodeKind::Fold { .. } | NodeKind::Split => false,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_script;
    use crate::plan::Planner;
    use kq_coreutils::ExecContext;
    use kq_synth::SynthesisConfig;
    use std::collections::HashMap;

    fn sample_text() -> String {
        let mut s = String::new();
        for i in 0..200 {
            s.push_str(&format!("the quick brown fox {i} jumps over dogs\n"));
        }
        s
    }

    fn graph(script_text: &str, fuse: bool) -> DataflowGraph {
        let env: HashMap<String, String> = HashMap::new();
        let script = parse_script(script_text, &env).unwrap();
        let ctx = ExecContext::default();
        ctx.vfs.write("/in.txt", sample_text());
        let mut planner = Planner::new(SynthesisConfig::default());
        let planned = planner.plan(&script, &ctx, &sample_text());
        DataflowGraph::build(&planned.statements[0], fuse)
    }

    #[test]
    fn fused_graph_isolates_barriers() {
        let g = graph(
            "cat /in.txt | tr -cs A-Za-z '\\n' | tr A-Z a-z | grep o | sort | uniq -c | sort -rn",
            true,
        );
        let shape: Vec<(NodeKind, Range<usize>)> =
            g.nodes.iter().map(|n| (n.kind, n.stages.clone())).collect();
        assert_eq!(
            shape,
            vec![
                (NodeKind::Split, 0..0),
                (
                    NodeKind::Fold {
                        mode: FoldMode::Gather
                    },
                    0..1
                ), // tr -cs: rerun, no shrink
                (NodeKind::StageWorker, 1..3), // tr | grep fused by the rewrite
                (
                    NodeKind::Fold {
                        mode: FoldMode::Combine
                    },
                    3..4
                ), // sort
                (
                    NodeKind::Fold {
                        mode: FoldMode::Combine
                    },
                    4..5
                ), // uniq -c
                (
                    NodeKind::Fold {
                        mode: FoldMode::Combine
                    },
                    5..6
                ), // sort -rn
            ]
        );
    }

    #[test]
    fn unfused_graph_has_one_node_per_stage() {
        let g = graph(
            "cat /in.txt | grep o | tr A-Z a-z | cut -c 1-5 | sort",
            false,
        );
        // Split + 4 stage nodes, streamables unfused.
        assert_eq!(g.nodes.len(), 5);
        assert!(g.nodes[1..4]
            .iter()
            .all(|n| n.kind == NodeKind::StageWorker && n.stages.len() == 1));
    }

    #[test]
    fn fusion_rewrite_merges_maximal_streamable_runs() {
        let mut g = graph(
            "cat /in.txt | grep o | tr A-Z a-z | cut -c 1-5 | sort",
            false,
        );
        g.fuse_streamable();
        let workers: Vec<Range<usize>> = g
            .nodes
            .iter()
            .filter(|n| n.kind == NodeKind::StageWorker)
            .map(|n| n.stages.clone())
            .collect();
        assert_eq!(workers, vec![0..3], "three chunk-local stages fuse");
    }

    #[test]
    fn bounded_stage_becomes_bounded_consumer_node() {
        let g = graph("cat /in.txt | grep fox | head -n 2 | grep o", true);
        assert_eq!(g.nodes[2].kind, NodeKind::BoundedConsumer { lines: 2 });
        // A bounded node never fuses into a neighboring streamable run.
        assert_eq!(g.nodes.len(), 4);
        // `head -n 1` plans parallel (first combiner) and `sed 100q` with a
        // rerun combiner: both become bounded consumers regardless.
        let g = graph("cat /in.txt | grep fox | head -n 1", true);
        assert_eq!(g.nodes[2].kind, NodeKind::BoundedConsumer { lines: 1 });
        let g = graph("cat /in.txt | sed 100q | sort", true);
        assert_eq!(g.nodes[1].kind, NodeKind::BoundedConsumer { lines: 100 });
    }

    #[test]
    fn validate_accepts_built_graphs_and_rejects_broken_ones() {
        let script = "cat /in.txt | grep fox | tr A-Z a-z | sort | head -n 2";
        for fuse in [false, true] {
            let g = graph(script, fuse);
            assert_eq!(g.validate(4, 8), Vec::<String>::new());
        }

        let mut g = graph(script, true);
        // A gap in the stage partition.
        let last = g.nodes.len() - 1;
        g.nodes[last].stages.start += 1;
        assert!(g.validate(4, 8).iter().any(|p| p.contains("previous node")));

        // A fold pretending to span a fused run.
        let mut g = graph(script, true);
        let fold = g
            .nodes
            .iter()
            .position(|n| matches!(n.kind, NodeKind::Fold { .. }))
            .unwrap();
        g.nodes[fold - 1].stages.end -= 1;
        g.nodes[fold].stages.start -= 1;
        assert!(g
            .validate(4, 8)
            .iter()
            .any(|p| p.contains("span more than one stage")));

        // A stale eager_flush flag after a rewrite.
        let mut g = graph(script, true);
        g.nodes[0].eager_flush = !g.nodes[0].eager_flush;
        assert!(g.validate(4, 8).iter().any(|p| p.contains("eager_flush")));

        // Zero queue credit deadlocks every fold.
        let g = graph(script, true);
        assert!(g.validate(4, 0).iter().any(|p| p.contains("queue credit")));

        // Wrong stage count.
        let g = graph(script, true);
        assert!(g
            .validate(5, 8)
            .iter()
            .any(|p| p.contains("has 5 stage(s)")));
    }

    #[test]
    fn eager_flush_propagates_through_chunk_local_nodes_only() {
        let g = graph("cat /in.txt | grep fox | grep o | head -n 1", false);
        // Split, grep, grep, head: both greps and the split flush eagerly.
        assert_eq!(
            g.nodes.iter().map(|n| n.eager_flush).collect::<Vec<_>>(),
            vec![true, true, true, false]
        );
        let g = graph("cat /in.txt | sort | head -n 1", true);
        // The fold blocks the propagation: split need not flush eagerly.
        assert_eq!(
            g.nodes.iter().map(|n| n.eager_flush).collect::<Vec<_>>(),
            vec![false, true, false]
        );
    }
}
