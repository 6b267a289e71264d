//! Fleet builders: networks, compute models and fault plans for the
//! experiment scenarios. A fault at a fraction of the fleet needs no builder:
//! it is `FaultPlan::with_fraction(clients, fraction, name.parse()?, seed)`.

use adafl_fl::compute::ComputeModel;
use adafl_fl::faults::{FaultKind, FaultPlan};
use adafl_netsim::{
    ClientNetwork, GilbertElliott, LinkProfile, LinkSpec, LinkTrace, MeshLayout, NodeRole, SimTime,
    Topology, TraceKind,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A homogeneous broadband fleet (the paper's fixed-bandwidth evaluation
/// setting for Tables I/II).
pub fn broadband_network(clients: usize, seed: u64) -> ClientNetwork {
    ClientNetwork::new(
        vec![LinkTrace::constant(LinkProfile::Broadband.spec()); clients],
        seed,
    )
}

/// A mixed embedded fleet: the first `constrained_fraction` of clients sit
/// on time-varying links (random-walk congestion) of the `profile` device
/// class, the rest on broadband — the heterogeneity AdaFL's bandwidth term
/// keys on.
pub fn mixed_network(
    clients: usize,
    constrained_fraction: f64,
    profile: LinkProfile,
    seed: u64,
) -> ClientNetwork {
    let n_constrained = (clients as f64 * constrained_fraction).round() as usize;
    let traces: Vec<LinkTrace> = (0..clients)
        .map(|c| {
            if c < n_constrained {
                LinkTrace::new(
                    profile.spec(),
                    TraceKind::RandomWalk {
                        step: 5.0,
                        min_scale: 0.3,
                        max_scale: 1.0,
                        seed: seed ^ c as u64,
                    },
                )
            } else {
                LinkTrace::constant(LinkProfile::Broadband.spec())
            }
        })
        .collect();
    ClientNetwork::new(traces, seed)
}

/// A fleet where the first `fraction` of clients sit behind links that drop
/// whole transfers with probability `drop_prob` — the asynchronous-dropout
/// condition of Figure 1(i–l).
pub fn lossy_network(clients: usize, fraction: f64, drop_prob: f64, seed: u64) -> ClientNetwork {
    let n_lossy = (clients as f64 * fraction).round() as usize;
    let traces: Vec<LinkTrace> = (0..clients)
        .map(|c| {
            let spec = if c < n_lossy {
                LinkProfile::Broadband.spec().with_drop_prob(drop_prob)
            } else {
                LinkProfile::Broadband.spec()
            };
            LinkTrace::constant(spec)
        })
        .collect();
    ClientNetwork::new(traces, seed)
}

/// A broadband fleet where the first `fraction` of clients sit behind a
/// Gilbert–Elliott burst-loss channel with a ≈20% long-run loss rate — the
/// chaos-sweep network condition. Losses cluster (mean burst length 1/0.4 =
/// 2.5 transfers), which is what defeats fire-and-forget transports.
pub fn burst_loss_network(clients: usize, fraction: f64, seed: u64) -> ClientNetwork {
    let n_bursty = (clients as f64 * fraction).round() as usize;
    let mut net = broadband_network(clients, seed);
    for c in 0..n_bursty {
        // Stationary loss rate: 0.4/(0.1+0.4)·0.05 + 0.1/(0.1+0.4)·0.8 = 0.20.
        net.set_burst_loss(c, GilbertElliott::new(0.1, 0.4, 0.05, 0.8, seed ^ c as u64));
    }
    net
}

/// A uniform compute fleet with mild per-query jitter.
pub fn uniform_compute(clients: usize, seconds_per_step: f64, seed: u64) -> ComputeModel {
    ComputeModel::uniform(clients, seconds_per_step).with_jitter(0.1, seed)
}

/// Fault plan for the chaos sweep: the first `crash_fraction` of clients
/// crash mid-run (staggered start rounds, two rounds down, checkpoint
/// recovery), the next `corruption_fraction` emit corrupted updates with
/// probability 0.5 per round. Fractions must not overlap past 1.0.
///
/// # Panics
///
/// Panics when the two fractions sum past 1.0 or either is outside [0, 1].
pub fn chaos_plan(
    clients: usize,
    crash_fraction: f64,
    corruption_fraction: f64,
    seed: u64,
) -> FaultPlan {
    assert!(
        (0.0..=1.0).contains(&crash_fraction) && (0.0..=1.0).contains(&corruption_fraction),
        "fractions must be in [0, 1]"
    );
    assert!(
        crash_fraction + corruption_fraction <= 1.0,
        "crash and corruption fractions must not overlap"
    );
    let n_crash = (clients as f64 * crash_fraction).round() as usize;
    let n_corrupt = (clients as f64 * corruption_fraction).round() as usize;
    let kinds: Vec<FaultKind> = (0..clients)
        .map(|c| {
            if c < n_crash {
                // Stagger outages so the cohort never loses everyone at once.
                FaultKind::Crash {
                    at_round: 2 + (c % 3) * 2,
                    down_for: 2,
                }
            } else if c < n_crash + n_corrupt {
                FaultKind::Corruption { prob: 0.5 }
            } else {
                FaultKind::Reliable
            }
        })
        .collect();
    FaultPlan::new(kinds, seed)
}

/// A dual-homed access mesh: every client reaches the server through a
/// fast *primary* relay and a slow *backup* relay, with clients spread
/// round-robin across `relays` of each kind. Primary relays are node ids
/// `1..=relays`, backups `relays+1..=2*relays`.
///
/// Both routes are two hops, so the naive hop-count planner settles the
/// tie by link insertion order — the primary, inserted first — and keeps
/// it forever; the cost-aware planner picks the primary for its lower
/// cost and re-plans onto the backup when the primary fails. That makes
/// this the canonical fixture for naive-vs-dynamic failure sweeps: every
/// primary outage is survivable, but only re-routing survives it.
///
/// # Panics
///
/// Panics when `clients` or `relays` is zero.
pub fn dual_homed_mesh(
    clients: usize,
    relays: usize,
    primary_hop: LinkSpec,
    backup_hop: LinkSpec,
) -> MeshLayout {
    assert!(clients > 0, "dual-homed mesh needs at least one client");
    assert!(relays > 0, "dual-homed mesh needs at least one relay pair");
    let mut topo = Topology::new();
    let server = topo.add_node(NodeRole::Server);
    let primaries: Vec<usize> = (0..relays)
        .map(|_| topo.add_node(NodeRole::Relay))
        .collect();
    let backups: Vec<usize> = (0..relays)
        .map(|_| topo.add_node(NodeRole::Relay))
        .collect();
    for &r in &primaries {
        topo.add_duplex_link(r, server, primary_hop);
    }
    for &r in &backups {
        topo.add_duplex_link(r, server, backup_hop);
    }
    let mut ids = Vec::with_capacity(clients);
    for i in 0..clients {
        let c = topo.add_node(NodeRole::Client);
        // Primary first: the naive planner's tie-break depends on it.
        topo.add_duplex_link(c, primaries[i % relays], primary_hop);
        topo.add_duplex_link(c, backups[i % relays], backup_hop);
        ids.push(c);
    }
    MeshLayout {
        topology: topo,
        clients: ids,
        server,
    }
}

/// Schedules an outage for a seeded random sample of `candidates` (node ids
/// of the layout, e.g. the primary relays of a [`dual_homed_mesh`]):
/// `intensity` is the fraction of them that go down at `down_at` seconds;
/// each recovers at `up_at` seconds when given, or stays down for the rest
/// of the run. Returns the failed node ids in failure order.
///
/// # Panics
///
/// Panics when `intensity` is outside `[0, 1]` or a recovery time does not
/// come after the outage.
pub fn schedule_outages_among(
    layout: &mut MeshLayout,
    candidates: &[usize],
    intensity: f64,
    down_at: f64,
    up_at: Option<f64>,
    seed: u64,
) -> Vec<usize> {
    assert!(
        (0.0..=1.0).contains(&intensity),
        "outage intensity must be in [0, 1]"
    );
    if let Some(up) = up_at {
        assert!(up > down_at, "recovery must come after the outage");
    }
    let mut chosen = candidates.to_vec();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4F55_5441); // "OUTA"
    chosen.shuffle(&mut rng);
    let n_down = (chosen.len() as f64 * intensity).round() as usize;
    chosen.truncate(n_down);
    for &node in &chosen {
        layout
            .topology
            .schedule_node_down(SimTime::from_seconds(down_at), node);
        if let Some(up) = up_at {
            layout
                .topology
                .schedule_node_up(SimTime::from_seconds(up), node);
        }
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use adafl_netsim::SimTime;

    #[test]
    fn mixed_network_constrains_prefix() {
        let net = mixed_network(10, 0.3, LinkProfile::Constrained, 0);
        let slow = net.link_at(0, SimTime::ZERO);
        let fast = net.link_at(9, SimTime::ZERO);
        assert!(slow.uplink_bandwidth() < fast.uplink_bandwidth());
        assert_eq!(net.len(), 10);
    }

    /// A named fault at a fraction of the fleet, as `ExperimentConfig` and
    /// the sweeps build it.
    fn named_plan(clients: usize, fraction: f64, name: &str, seed: u64) -> FaultPlan {
        FaultPlan::with_fraction(clients, fraction, name.parse().unwrap(), seed)
    }

    #[test]
    fn straggler_plan_kinds() {
        let affected = |plan: FaultPlan| plan.affected_clients().len();
        assert_eq!(affected(named_plan(10, 0.2, "dropout", 0)), 2);
        assert_eq!(affected(named_plan(10, 0.4, "dataloss", 0)), 4);
        assert_eq!(affected(named_plan(10, 0.1, "stale", 0)), 1);
        // The parameters Figure 1 runs with are the parser's defaults.
        assert_eq!("dropout".parse(), Ok(FaultKind::Dropout { period: 2 }));
        assert_eq!("dataloss".parse(), Ok(FaultKind::DataLoss { prob: 0.5 }));
        assert_eq!("stale".parse(), Ok(FaultKind::Stale { factor: 3.0 }));
    }

    #[test]
    #[should_panic(expected = "unknown fault kind")]
    fn bad_fault_kind_panics() {
        named_plan(10, 0.2, "gremlins", 0);
    }

    #[test]
    fn byzantine_plan_arms_a_prefix_of_attackers() {
        let plan = named_plan(10, 0.4, "sign-flip", 7);
        assert_eq!(plan.affected_clients(), vec![0, 1, 2, 3]);
        assert_eq!(plan.attacks_update(0), Some(FaultKind::SignFlip));
        assert_eq!(plan.attacks_update(9), None);
    }

    #[test]
    #[should_panic(expected = "needs an attack kind")]
    fn byzantine_plan_rejects_benign_faults() {
        // `is_attack` is how a caller tells a benign fault from an attack.
        let kind: FaultKind = "dropout".parse().unwrap();
        assert!(kind.is_attack(), "needs an attack kind, got {kind:?}");
    }

    #[test]
    fn uniform_compute_has_jitter_bounds() {
        let cm = uniform_compute(4, 0.1, 1);
        let t = cm.training_time(0, 10).seconds();
        assert!((0.9..=1.1).contains(&t));
    }

    fn every_client_routable(layout: &MeshLayout) {
        use adafl_netsim::{RoutePlanner, StaticShortestPath, TransferDirection};
        for &c in &layout.clients {
            let route = StaticShortestPath.plan(
                &layout.topology,
                c,
                layout.server,
                TransferDirection::Uplink,
            );
            assert!(route.is_some(), "client {c} cannot reach the server");
        }
    }

    #[test]
    fn dual_homed_planners_split_on_the_primary() {
        use adafl_netsim::{
            CostAwareDijkstra, RoutePlanner, StaticShortestPath, TransferDirection,
        };
        let fast = LinkSpec::new(4.0e6, 4.0e6, 0.01, 0.01, 0.0);
        let slow = LinkSpec::new(0.5e6, 0.5e6, 0.08, 0.08, 0.0);
        let layout = dual_homed_mesh(6, 3, fast, slow);
        every_client_routable(&layout);
        let client = layout.clients[0];
        let via = |route: Vec<usize>| layout.topology.link(route[0]).dst();
        let bfs = StaticShortestPath
            .plan(
                &layout.topology,
                client,
                layout.server,
                TransferDirection::Uplink,
            )
            .unwrap();
        let dijkstra = CostAwareDijkstra::default()
            .plan(
                &layout.topology,
                client,
                layout.server,
                TransferDirection::Uplink,
            )
            .unwrap();
        // Both settle on the primary relay (node 1 serves client 0) while
        // it is up; failure sweeps rely on that shared starting point.
        assert_eq!(via(bfs), 1);
        assert_eq!(via(dijkstra), 1);
    }

    #[test]
    fn relay_outages_honor_the_intensity_fraction() {
        let hop = LinkSpec::new(1.0e6, 1.0e6, 0.01, 0.01, 0.0);
        let mut layout = dual_homed_mesh(6, 4, hop, hop);
        let primaries = [1, 2, 3, 4];
        let failed = schedule_outages_among(&mut layout, &primaries, 0.5, 10.0, Some(20.0), 3);
        assert_eq!(failed.len(), 2); // half of the four primaries
        assert!(failed.iter().all(|n| primaries.contains(n)));
        layout.topology.advance_to(SimTime::from_seconds(10.0));
        for &n in &failed {
            assert!(!layout.topology.node_up(n));
        }
        layout.topology.advance_to(SimTime::from_seconds(20.0));
        for &n in &failed {
            assert!(layout.topology.node_up(n));
        }
    }

    #[test]
    #[should_panic(expected = "recovery must come after the outage")]
    fn outage_recovery_before_failure_panics() {
        let hop = LinkSpec::new(1.0e6, 1.0e6, 0.01, 0.01, 0.0);
        let mut layout = dual_homed_mesh(3, 1, hop, hop);
        schedule_outages_among(&mut layout, &[1], 1.0, 10.0, Some(5.0), 0);
    }
}
