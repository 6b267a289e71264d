//! Round update sinks: where delivered updates go before aggregation.
//!
//! The runtime historically materialised every delivered update in a
//! `Vec<RoundUpdate>` — O(clients × model) server memory per round. The
//! sink abstracts that collection point into three behaviours:
//!
//! * [`SinkMode::Legacy`] — buffer everything and hand the vector to the
//!   server's stage chain and [`AggregationPolicy::aggregate`] at round
//!   end, exactly as before. This is the default path and the only one a
//!   round takes when a stage needs the whole cohort side by side — which
//!   stages do is the chain's own knowledge (`ServerStages::needs_cohort`),
//!   not the sink's.
//! * [`SinkMode::Streaming`] — fold each update into a per-edge
//!   [`StreamAccumulator`] the moment it arrives via
//!   [`AggregationPolicy::fold`]; nothing larger than O(model ×
//!   edge aggregators) is ever resident.
//! * [`SinkMode::BufferedFold`] — buffer the updates, then replay the
//!   *identical* fold calls in arrival order at round end. This is the
//!   parity counterpart of streaming: both modes execute the same float
//!   operations in the same order, so their results are bitwise equal by
//!   construction, which the `streaming_parity` test pins.
//!
//! Edge aggregators model a hierarchical tier between clients and server:
//! update `u` folds into edge `u.client % edges`, and the per-edge
//! partials merge into one accumulator **in ascending edge order** at
//! round end (the deterministic-merge rule). Each active edge then ships
//! one dense partial to the server, charged to the edge's lead client —
//! the first client whose update the edge folded — through the relay-byte
//! machinery.

use super::payload::RoundUpdate;
use super::policy::{AggregationPolicy, StreamAccumulator};

/// Which collection behaviour a round's sink uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkMode {
    /// Buffer all updates for `aggregate(Vec<RoundUpdate>)` (default).
    Legacy,
    /// Fold updates into edge accumulators as they arrive.
    Streaming,
    /// Buffer, then replay the streaming folds at round end (parity).
    BufferedFold,
}

/// One edge aggregator's running partial plus the client its uplink to
/// the server is attributed to.
#[derive(Debug)]
struct EdgeAccumulator {
    acc: StreamAccumulator,
    /// First client folded into this edge; the edge→server partial
    /// transfer is charged to it.
    lead_client: Option<usize>,
}

/// Per-round destination for delivered updates (see module docs).
#[derive(Debug)]
pub struct UpdateSink {
    mode: SinkMode,
    edges: Vec<EdgeAccumulator>,
    buffered: Vec<RoundUpdate>,
}

impl UpdateSink {
    /// Creates a sink. `edge_aggregators == 0` means a flat topology: one
    /// server-side accumulator and no edge-tier charges.
    pub fn new(mode: SinkMode, dim: usize, edge_aggregators: usize) -> Self {
        let edges = match mode {
            SinkMode::Legacy => Vec::new(),
            _ => (0..edge_aggregators.max(1))
                .map(|_| EdgeAccumulator {
                    acc: StreamAccumulator::new(dim),
                    lead_client: None,
                })
                .collect(),
        };
        UpdateSink {
            mode,
            edges,
            buffered: Vec::new(),
        }
    }

    /// Accepts one delivered update. Streaming folds immediately; the
    /// buffering modes push.
    pub fn accept(&mut self, policy: &mut dyn AggregationPolicy, update: RoundUpdate) {
        match self.mode {
            SinkMode::Streaming => self.fold_one(policy, &update),
            SinkMode::Legacy | SinkMode::BufferedFold => self.buffered.push(update),
        }
    }

    /// Number of updates the sink has taken in.
    pub fn delivered(&self) -> usize {
        match self.mode {
            SinkMode::Streaming => self.edges.iter().map(|e| e.acc.count).sum(),
            _ => self.buffered.len(),
        }
    }

    fn fold_one(&mut self, policy: &mut dyn AggregationPolicy, update: &RoundUpdate) {
        let e = update.client % self.edges.len();
        let edge = &mut self.edges[e];
        policy.fold(&mut edge.acc, update);
        edge.lead_client.get_or_insert(update.client);
    }

    /// Ends the round, consuming the sink. A legacy sink hands its
    /// buffered cohort back for the screen → robust → `aggregate`
    /// pipeline. A streaming or buffered-fold sink replays any buffered
    /// updates through the fold (buffered-fold mode), merges the per-edge
    /// partials in ascending edge order, and returns the merged
    /// accumulator together with the per-edge transfers
    /// `(lead_client, fold_count)` for ledger charging — one entry per
    /// edge that folded at least one update, in edge order — or `None`
    /// when nothing was delivered.
    pub fn close(mut self, policy: &mut dyn AggregationPolicy) -> Closed {
        match self.mode {
            SinkMode::Legacy => return Closed::Buffered(self.buffered),
            SinkMode::Streaming => {}
            SinkMode::BufferedFold => {
                // Replay the exact fold calls streaming made at arrival
                // time, in arrival order — bitwise parity by construction.
                let buffered = std::mem::take(&mut self.buffered);
                for update in &buffered {
                    self.fold_one(policy, update);
                }
            }
        }
        // `fold_one` sets an edge's lead with its first fold, so every edge
        // that folded has one.
        let charges: Vec<(usize, usize)> = self
            .edges
            .iter()
            .filter(|e| e.acc.count > 0)
            .filter_map(|e| Some((e.lead_client?, e.acc.count)))
            .collect();
        let mut edges = self.edges.into_iter();
        let Some(first) = edges.next().filter(|_| !charges.is_empty()) else {
            return Closed::Folded(None);
        };
        let mut merged = first.acc;
        for e in edges {
            if e.acc.count > 0 {
                merged.merge(&e.acc);
            }
        }
        Closed::Folded(Some((merged, charges)))
    }
}

/// What a round's sink held when it was [closed](UpdateSink::close): the
/// variant is the sink's mode, so a caller cannot ask a legacy sink for an
/// accumulator or a folding sink for its buffer.
#[derive(Debug)]
pub enum Closed {
    /// The whole delivered cohort ([`SinkMode::Legacy`]).
    Buffered(Vec<RoundUpdate>),
    /// The merged accumulator and the per-edge `(lead_client, fold_count)`
    /// charges, or `None` when nothing was delivered
    /// ([`SinkMode::Streaming`] / [`SinkMode::BufferedFold`]).
    Folded(Option<(StreamAccumulator, Vec<(usize, usize)>)>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::payload::UpdatePayload;

    /// Minimal streaming policy using the trait's default fold/finish.
    #[derive(Debug)]
    struct MeanPolicy;

    impl AggregationPolicy for MeanPolicy {
        fn label(&self) -> &str {
            "mean"
        }
        fn aggregate(
            &mut self,
            _global: &mut [f32],
            _global_gradient: &mut Vec<f32>,
            _updates: Vec<RoundUpdate>,
        ) {
            unreachable!("streaming tests never buffer-aggregate");
        }
        fn supports_streaming(&self) -> bool {
            true
        }
    }

    fn folded(closed: Closed) -> Option<(StreamAccumulator, Vec<(usize, usize)>)> {
        match closed {
            Closed::Folded(folded) => folded,
            Closed::Buffered(_) => panic!("a folding sink closes to its accumulator"),
        }
    }

    fn update(client: usize, value: f32, weight: f32) -> RoundUpdate {
        RoundUpdate {
            client,
            payload: UpdatePayload::dense(vec![value; 4]),
            weight,
        }
    }

    #[test]
    fn streaming_and_buffered_fold_are_bitwise_identical() {
        let updates = vec![
            update(0, 1.0, 2.0),
            update(3, -0.5, 1.0),
            update(5, 0.25, 3.0),
        ];
        let mut policy = MeanPolicy;
        let mut streaming = UpdateSink::new(SinkMode::Streaming, 4, 2);
        let mut buffered = UpdateSink::new(SinkMode::BufferedFold, 4, 2);
        for u in &updates {
            streaming.accept(&mut policy, u.clone());
            buffered.accept(&mut policy, u.clone());
        }
        let (acc_s, charges_s) = folded(streaming.close(&mut policy)).expect("delivered");
        let (acc_b, charges_b) = folded(buffered.close(&mut policy)).expect("delivered");
        assert_eq!(acc_s, acc_b);
        assert_eq!(charges_s, charges_b);
        assert_eq!(acc_s.count, 3);
        assert_eq!(acc_s.total_weight, 6.0);
    }

    #[test]
    fn edges_partition_by_client_and_charge_leads_in_edge_order() {
        let mut policy = MeanPolicy;
        let mut sink = UpdateSink::new(SinkMode::Streaming, 4, 2);
        // Edge 1 (client 3) arrives before edge 0 (client 4): charges come
        // back in edge order regardless of arrival order.
        sink.accept(&mut policy, update(3, 1.0, 1.0));
        sink.accept(&mut policy, update(4, 1.0, 1.0));
        sink.accept(&mut policy, update(5, 1.0, 1.0));
        let (acc, charges) = folded(sink.close(&mut policy)).expect("delivered");
        assert_eq!(acc.count, 3);
        assert_eq!(charges, vec![(4, 1), (3, 2)]);
    }

    #[test]
    fn empty_round_finishes_to_none() {
        let mut policy = MeanPolicy;
        let sink = UpdateSink::new(SinkMode::Streaming, 4, 3);
        assert!(folded(sink.close(&mut policy)).is_none());
    }

    #[test]
    fn legacy_mode_hands_back_the_buffer() {
        let mut policy = MeanPolicy;
        let mut sink = UpdateSink::new(SinkMode::Legacy, 4, 0);
        sink.accept(&mut policy, update(1, 1.0, 1.0));
        sink.accept(&mut policy, update(2, 2.0, 1.0));
        let Closed::Buffered(buffered) = sink.close(&mut policy) else {
            panic!("a legacy sink closes to its buffer");
        };
        assert_eq!(buffered.len(), 2);
        assert_eq!(buffered[0].client, 1);
    }
}
