//! Multi-hop mesh fleet: a relay dies mid-round and the cost-aware
//! planner heals the fleet by re-routing — the naive planner cannot.
//!
//! Twelve embedded devices sit on a 4×3 grid: the server in one corner,
//! two mains-powered relays on the interior cells, nine battery devices
//! around the border. Relay hops are fast (mains power, good antennas);
//! device-to-device border hops are slow. Mid-run, relay A browns out for
//! a stretch and comes back. The run is repeated with both route
//! planners:
//!
//! * `naive` (hop-count BFS) plans each route once and keeps it — every
//!   transfer across the dead relay is lost until it returns;
//! * `dynamic` (cost-aware Dijkstra) re-plans on the live graph — traffic
//!   detours through relay B and the slow border links, and snaps back
//!   when relay A recovers.
//!
//! The telemetry recorder tallies the reroutes, partitions and per-round
//! deliveries that separate the two.
//!
//! ```text
//! cargo run --release --example mesh_fleet
//! ```

use adafl_data::partition::Partitioner;
use adafl_data::synthetic::SyntheticSpec;
use adafl_fl::runtime::RuntimeBuilder;
use adafl_fl::sync::strategies::FedAvg;
use adafl_fl::{FlConfig, RunHistory};
use adafl_netsim::{
    CostAwareDijkstra, LinkSpec, MeshLayout, NodeRole, RoutePlanner, SimTime, StaticShortestPath,
    Topology,
};
use adafl_nn::models::ModelSpec;
use adafl_telemetry::{names, InMemoryRecorder, Trace};

const WIDTH: usize = 4;
const HEIGHT: usize = 3;
const ROUNDS: usize = 12;

/// Fast hop: mains-powered relay radio.
fn relay_hop() -> LinkSpec {
    LinkSpec::new(4.0e6, 4.0e6, 0.01, 0.01, 0.0)
}

/// Slow hop: battery device to battery device along the border.
fn border_hop() -> LinkSpec {
    LinkSpec::new(0.5e6, 0.5e6, 0.08, 0.08, 0.0)
}

/// The 12-node grid: server at (0,0), relays on the two interior cells
/// (1,1) and (2,1), clients on the remaining border cells. Links follow
/// the 4-neighbour grid; any hop touching a relay is fast.
fn grid(fail_at: f64, heal_at: f64) -> (MeshLayout, usize) {
    let mut topo = Topology::new();
    let mut clients = Vec::new();
    let mut server = 0;
    for y in 0..HEIGHT {
        for x in 0..WIDTH {
            let interior = x > 0 && x < WIDTH - 1 && y > 0 && y < HEIGHT - 1;
            let role = if (x, y) == (0, 0) {
                NodeRole::Server
            } else if interior {
                NodeRole::Relay
            } else {
                NodeRole::Client
            };
            let id = topo.add_node(role);
            match role {
                NodeRole::Server => server = id,
                NodeRole::Client => clients.push(id),
                NodeRole::Relay => {}
            }
            let connect = |a: usize, b: usize, topo: &mut Topology| {
                let fast = topo.role(a) == NodeRole::Relay || topo.role(b) == NodeRole::Relay;
                topo.add_duplex_link(a, b, if fast { relay_hop() } else { border_hop() });
            };
            if x > 0 {
                connect(id - 1, id, &mut topo);
            }
            if y > 0 {
                connect(id - WIDTH, id, &mut topo);
            }
        }
    }
    let relay_a = 1 + WIDTH; // cell (1,1)
    topo.schedule_node_down(SimTime::from_seconds(fail_at), relay_a);
    topo.schedule_node_up(SimTime::from_seconds(heal_at), relay_a);
    (
        MeshLayout {
            topology: topo,
            clients,
            server,
        },
        relay_a,
    )
}

fn run(planner: Box<dyn RoutePlanner>, fail_at: f64, heal_at: f64) -> (RunHistory, Trace) {
    let data = SyntheticSpec::mnist_like(12, 1000).generate(7);
    let (train, test) = data.split_at(800);
    let (layout, _) = grid(fail_at, heal_at);
    let clients = layout.clients.len();
    let fl = FlConfig::builder()
        .clients(clients)
        .rounds(ROUNDS)
        .participation(1.0)
        .local_steps(3)
        .model(ModelSpec::LogisticRegression {
            in_features: 144,
            classes: 10,
        })
        .seed(17)
        .build();
    let recorder = InMemoryRecorder::shared();
    let mut runtime = RuntimeBuilder::new(fl, test)
        .partitioned(&train, Partitioner::Iid)
        .network(layout.into_network(planner, 17))
        .recorder(recorder.clone())
        .build_sync(Box::new(FedAvg::new()));
    let history = runtime.run();
    (history, recorder.snapshot())
}

fn main() {
    // Calibrate the outage against a clean clock: relay A dies around a
    // third of the way through the run and is healed at two thirds.
    let (clean, _) = run(Box::new(CostAwareDijkstra::default()), f64::MAX, f64::MAX);
    let total = clean
        .records()
        .last()
        .expect("rounds ran")
        .sim_time
        .seconds();
    let (fail_at, heal_at) = (total * 0.33, total * 0.66);
    println!(
        "12-node grid mesh: 9 clients, 2 relays; relay A down {:.1}s..{:.1}s of ~{:.1}s",
        fail_at, heal_at, total
    );
    println!();

    let mut tallies = Vec::new();
    for (name, planner) in [
        (
            "naive",
            Box::new(StaticShortestPath) as Box<dyn RoutePlanner>,
        ),
        ("dynamic", Box::new(CostAwareDijkstra::default())),
    ] {
        let (history, trace) = run(planner, fail_at, heal_at);
        let count = |n: &str| trace.counters.get(n).copied().unwrap_or(0);
        println!("== {name} planner ==");
        println!("round  contributors  accuracy");
        for r in history.records() {
            let full = if r.contributors == 9 {
                ""
            } else {
                "  <- degraded"
            };
            println!(
                "{:>5}  {:>12}  {:.3}{}",
                r.round, r.contributors, r.accuracy, full
            );
        }
        for event in trace.events_of(names::EVENT_MESH_REROUTE) {
            println!(
                "  reroute: client {} at t={:.2}s",
                event.client.map_or_else(|| "?".into(), |c| c.to_string()),
                event.sim_time
            );
        }
        println!(
            "tallies: {} reroutes, {} partitioned transfers, final acc {:.3}",
            count(names::MESH_REROUTES),
            count(names::MESH_PARTITIONS),
            history.final_accuracy()
        );
        println!();
        tallies.push((name, count(names::MESH_REROUTES), history.final_accuracy()));
    }

    println!("Paper insight: resilient FL on constrained networks is a routing");
    println!("problem as much as a protocol problem — the same fleet, schedule and");
    println!("seed lose rounds under static paths and lose nothing when the");
    println!(
        "network re-plans around the failure ({} reroutes).",
        tallies[1].1
    );
}
