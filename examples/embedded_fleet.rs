//! Embedded fleet: asynchronous AdaFL on a heterogeneous fleet of simulated
//! embedded devices — slow CPUs, constrained time-varying uplinks, non-IID
//! data — the deployment the paper's title targets.
//!
//! Compares fully-asynchronous AdaFL against FedAsync on the same fleet:
//! one `RuntimeBuilder` chain per run, the same `AsyncRuntime` back, and
//! only the policy bundle named by the final `build_*` call differs.
//!
//! ```text
//! cargo run --release --example embedded_fleet
//! ```

use adafl_core::{AdaFlBuild, AdaFlConfig};
use adafl_data::partition::Partitioner;
use adafl_data::synthetic::SyntheticSpec;
use adafl_fl::compute::ComputeModel;
use adafl_fl::faults::FaultPlan;
use adafl_fl::r#async::strategies::FedAsync;
use adafl_fl::runtime::RuntimeBuilder;
use adafl_fl::FlConfig;
use adafl_netsim::{ClientNetwork, LinkProfile, LinkTrace, TraceKind};
use adafl_nn::models::ModelSpec;

const CLIENTS: usize = 8;
const BUDGET: u64 = 150;

/// Half the fleet on congested cellular links with random-walk bandwidth,
/// half on broadband; compute speeds spread 4×.
fn fleet() -> (ClientNetwork, ComputeModel) {
    let traces: Vec<LinkTrace> = (0..CLIENTS)
        .map(|c| {
            if c % 2 == 0 {
                LinkTrace::new(
                    LinkProfile::Cellular.spec(),
                    TraceKind::RandomWalk {
                        step: 10.0,
                        min_scale: 0.25,
                        max_scale: 1.0,
                        seed: c as u64,
                    },
                )
            } else {
                LinkTrace::constant(LinkProfile::Broadband.spec())
            }
        })
        .collect();
    let network = ClientNetwork::new(traces, 99);
    let speeds: Vec<f64> = (0..CLIENTS)
        .map(|c| 0.05 * (1.0 + c as f64 * 0.5))
        .collect();
    (network, ComputeModel::heterogeneous(speeds))
}

fn main() {
    let data = SyntheticSpec::mnist_like(16, 1200).generate(11);
    let (train, test) = data.split_at(1000);
    let partitioner = Partitioner::Dirichlet { alpha: 0.5 };
    let fl = FlConfig::builder()
        .clients(CLIENTS)
        .rounds(40)
        .model(ModelSpec::MnistCnn {
            height: 16,
            width: 16,
            classes: 10,
        })
        .build();
    println!("== embedded fleet: {CLIENTS} devices, Dirichlet(0.5) data, {BUDGET} updates ==");

    // FedAsync baseline.
    let (network, compute) = fleet();
    let mut fedasync = RuntimeBuilder::new(fl.clone(), test.clone())
        .partitioned(&train, partitioner)
        .network(network)
        .compute(compute)
        .faults(FaultPlan::reliable(CLIENTS))
        .update_budget(BUDGET)
        .build_async(Box::new(FedAsync::new(0.6, 0.5)))
        .expect("no sync-only options set");
    let base = fedasync.run();

    // Fully-asynchronous AdaFL.
    let (network, compute) = fleet();
    let mut adafl = RuntimeBuilder::new(fl, test)
        .partitioned(&train, partitioner)
        .network(network)
        .compute(compute)
        .faults(FaultPlan::reliable(CLIENTS))
        .update_budget(BUDGET)
        .build_adafl_async(&AdaFlConfig::default());
    let ours = adafl.run();

    let wall = |h: &adafl_fl::RunHistory| h.records().last().map_or(0.0, |r| r.sim_time.seconds());
    println!(
        "fedasync: accuracy {:.1}% after {:.0}s simulated, {:.2} MB uplink",
        base.final_accuracy() * 100.0,
        wall(&base),
        fedasync.ledger().uplink_bytes() as f64 / 1e6,
    );
    println!(
        "adafl:    accuracy {:.1}% after {:.0}s simulated, {:.2} MB uplink",
        ours.final_accuracy() * 100.0,
        wall(&ours),
        adafl.ledger().uplink_bytes() as f64 / 1e6,
    );
    println!(
        "adafl used {:.1}% of the baseline's uplink bytes",
        adafl.ledger().uplink_bytes() as f64 / fedasync.ledger().uplink_bytes() as f64 * 100.0
    );
}
