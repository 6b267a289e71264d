//! The four workloads: their sizes, their seeded input generators and the
//! assembly of a fresh runtime through the program's public builder.
//!
//! Everything `--seed` influences is generated here — synthetic data,
//! partition, link traces, fault plan and `FlConfig::seed` — so the
//! program receives only generated inputs, and nothing is borrowed from
//! `crates/bench` whose refactoring could shift a workload.
//!
//! Work per update must not depend on the seed: participant counts are
//! fixed wherever the policy allows, every link is drop-free (so every
//! encoded byte is a ledger byte and no operation fails by design), and
//! simulated compute times are not seeded.

use crate::trace::{
    TimedAggregation, TimedAsync, TimedCompression, TimedSelection, TimedShards, Tracer,
};
use adafl_core::policies::AdaFlAggregation;
use adafl_core::{adafl_sync_policies, AdaFlConfig};
use adafl_data::partition::Partitioner;
use adafl_data::synthetic::SyntheticSpec;
use adafl_data::Dataset;
use adafl_fl::compute::ComputeModel;
use adafl_fl::defense::DefenseConfig;
use adafl_fl::faults::{FaultKind, FaultPlan};
use adafl_fl::r#async::strategies::FedBuff;
use adafl_fl::robust::RobustMethod;
use adafl_fl::runtime::{
    AsyncRuntime, RandomSelection, RuntimeBuilder, SinkMode, StaticCompressionPolicy,
    StrategyAggregation, StrategyAsyncPolicy, SyncPolicies, SyncRuntime,
};
use adafl_fl::sync::strategies::FedAvg;
use adafl_fl::sync::StaticCompression;
use adafl_fl::{FlConfig, ShardSource};
use adafl_netsim::{ClientNetwork, LinkProfile, LinkTrace, TraceKind};
use adafl_nn::models::ModelSpec;
use adafl_nn::Model;
use adafl_telemetry::SharedRecorder;
use std::sync::Arc;

/// Image side of every synthetic task: 16 × 16 = 256 features.
pub const SIDE: usize = 16;
/// Test-set size of every workload.
pub const TEST_SAMPLES: usize = 400;

/// The paper's CNN on 16 × 16 inputs (56 080 parameters).
pub fn cnn_spec() -> ModelSpec {
    ModelSpec::MnistCnn {
        height: SIDE,
        width: SIDE,
        classes: 10,
    }
}

/// The robust workload's model (8 554 parameters).
pub fn mlp_spec() -> ModelSpec {
    ModelSpec::Mlp {
        in_features: SIDE * SIDE,
        hidden: vec![32],
        classes: 10,
    }
}

/// The fleet workload's model (2 570 parameters).
pub fn logreg_spec() -> ModelSpec {
    ModelSpec::LogisticRegression {
        in_features: SIDE * SIDE,
        classes: 10,
    }
}

/// Sizes of `sync_cnn_adafl`.
pub mod sync_cnn {
    /// Fleet size.
    pub const CLIENTS: usize = 10;
    /// Rounds per repetition; the first three are AdaFL warm-up rounds
    /// with all ten clients, the rest select at most five.
    pub const ROUNDS: usize = 8;
    /// Local SGD steps per update.
    pub const LOCAL_STEPS: usize = 5;
    /// Mini-batch size.
    pub const BATCH: usize = 32;
    /// Training samples per client.
    pub const SAMPLES_PER_CLIENT: usize = 120;
    /// Share of clients on constrained random-walk links.
    pub const CONSTRAINED_CLIENTS: usize = 3;
}

/// Sizes of `async_cnn_fedbuff`.
pub mod async_cnn {
    /// Fleet size.
    pub const CLIENTS: usize = 10;
    /// Arrivals per repetition.
    pub const UPDATE_BUDGET: u64 = 40;
    /// Arrivals between evaluations (the runtime's default).
    pub const EVAL_EVERY: u64 = 5;
    /// Local SGD steps per update.
    pub const LOCAL_STEPS: usize = 5;
    /// Mini-batch size.
    pub const BATCH: usize = 32;
    /// Training samples per client.
    pub const SAMPLES_PER_CLIENT: usize = 120;
    /// FedBuff buffer size.
    pub const BUFFER: usize = 3;
    /// FedBuff server learning rate.
    pub const SERVER_LR: f32 = 0.3;
}

/// Sizes of `fleet_100k_stream`.
pub mod fleet {
    /// Fleet size.
    pub const CLIENTS: usize = 100_000;
    /// Participants per round.
    pub const PARTICIPANTS: usize = 2_000;
    /// Rounds per repetition.
    pub const ROUNDS: usize = 10;
    /// Clients scheduled (and resident) at a time.
    pub const COHORT: usize = 256;
    /// Edge aggregators of the hierarchical tier.
    pub const EDGES: usize = 8;
    /// Local SGD steps per update.
    pub const LOCAL_STEPS: usize = 2;
    /// Mini-batch size.
    pub const BATCH: usize = 16;
    /// Distinct shards the benchmark's `ShardSource` serves.
    pub const BANK: usize = 1024;
    /// Samples per shard.
    pub const SAMPLES_PER_SHARD: usize = 24;
}

/// Sizes of `robust_256_trimmed`.
pub mod robust {
    /// Fleet size; every client participates in every round.
    pub const CLIENTS: usize = 256;
    /// Rounds per repetition.
    pub const ROUNDS: usize = 12;
    /// Local SGD steps per update.
    pub const LOCAL_STEPS: usize = 2;
    /// Mini-batch size.
    pub const BATCH: usize = 16;
    /// Training samples per client.
    pub const SAMPLES_PER_CLIENT: usize = 24;
    /// Share of clients that negate their update.
    pub const ATTACKERS: f64 = 0.2;
    /// Share trimmed from each end of every coordinate.
    pub const TRIM_RATIO: f64 = 0.25;
}

/// Rounds (arrivals ÷ 5 for async) of a [`Length::Short`] run.
pub const SHORT_ROUNDS: usize = 3;

/// One of the four benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper-scale synchronous AdaFL over the CNN.
    SyncCnnAdafl,
    /// Asynchronous FedBuff over the same CNN.
    AsyncCnnFedbuff,
    /// Pooled, streaming 100 000-client fleet.
    Fleet100kStream,
    /// Server-bound buffered robust aggregation.
    Robust256Trimmed,
}

/// How many rounds a run lasts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Length {
    /// The measured size.
    Full,
    /// [`SHORT_ROUNDS`] rounds, for the decorator parity test.
    Short,
}

impl Length {
    /// `full` rounds, or [`SHORT_ROUNDS`].
    fn rounds(self, full: usize) -> usize {
        match self {
            Length::Full => full,
            Length::Short => SHORT_ROUNDS,
        }
    }
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::SyncCnnAdafl,
        Workload::AsyncCnnFedbuff,
        Workload::Fleet100kStream,
        Workload::Robust256Trimmed,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SyncCnnAdafl => "sync_cnn_adafl",
            Workload::AsyncCnnFedbuff => "async_cnn_fedbuff",
            Workload::Fleet100kStream => "fleet_100k_stream",
            Workload::Robust256Trimmed => "robust_256_trimmed",
        }
    }

    /// Parses a `--workload` value.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Threads the workload keeps busy: the pinned worker-pool width of
    /// the sync workloads, the calling thread alone for the async event
    /// loop. Host samples run on as many.
    pub fn pool_width(self) -> usize {
        match self {
            Workload::AsyncCnnFedbuff => 1,
            _ => 2,
        }
    }

    /// Operations of one full repetition: rounds for sync, arrivals for
    /// async.
    pub fn ops(self) -> u64 {
        match self {
            Workload::SyncCnnAdafl => sync_cnn::ROUNDS as u64,
            Workload::AsyncCnnFedbuff => async_cnn::UPDATE_BUDGET,
            Workload::Fleet100kStream => fleet::ROUNDS as u64,
            Workload::Robust256Trimmed => robust::ROUNDS as u64,
        }
    }

    /// History records of one full repetition: one per round for sync,
    /// one per [`async_cnn::EVAL_EVERY`] arrivals for async.
    pub fn history_len(self) -> usize {
        match self {
            Workload::AsyncCnnFedbuff => {
                async_cnn::UPDATE_BUDGET.div_ceil(async_cnn::EVAL_EVERY) as usize
            }
            _ => self.ops() as usize,
        }
    }

    /// The model the workload trains.
    pub fn model(self) -> ModelSpec {
        match self {
            Workload::SyncCnnAdafl | Workload::AsyncCnnFedbuff => cnn_spec(),
            Workload::Fleet100kStream => logreg_spec(),
            Workload::Robust256Trimmed => mlp_spec(),
        }
    }

    /// Local SGD steps per update.
    pub fn local_steps(self) -> usize {
        match self {
            Workload::SyncCnnAdafl => sync_cnn::LOCAL_STEPS,
            Workload::AsyncCnnFedbuff => async_cnn::LOCAL_STEPS,
            Workload::Fleet100kStream => fleet::LOCAL_STEPS,
            Workload::Robust256Trimmed => robust::LOCAL_STEPS,
        }
    }

    /// Final test accuracy below which a repetition counts as failed:
    /// half-way between chance (0.1) and the lowest final accuracy over
    /// seeds 1–16 (0.3925, 0.7825, 0.8650 and 0.7475 in the order of
    /// [`Workload::ALL`]; README.md, "Correctness checks").
    pub fn accuracy_floor(self) -> f32 {
        match self {
            Workload::SyncCnnAdafl => 0.246,
            Workload::AsyncCnnFedbuff => 0.441,
            Workload::Fleet100kStream => 0.482,
            Workload::Robust256Trimmed => 0.424,
        }
    }
}

/// A decorrelated sub-seed of `seed` for one named generator (SplitMix64
/// finaliser over the seed and a per-generator constant).
fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const STREAM_DATA: u64 = 1;
const STREAM_PARTITION: u64 = 2;
const STREAM_LINKS: u64 = 3;
const STREAM_FAULTS: u64 = 4;

/// Train and test data of one task.
fn task_data(train_samples: usize, seed: u64) -> (Dataset, Dataset) {
    SyntheticSpec::mnist_like(SIDE, train_samples + TEST_SAMPLES)
        .generate(sub_seed(seed, STREAM_DATA))
        .split_at(train_samples)
}

/// Serves client `c` a clone of `bank[c % bank.len()]`. Generating a
/// shard per checkout put 81 % of a round inside the data generator; a
/// bank built during set-up keeps the round on the runtime's own path.
#[derive(Debug)]
struct BankShards {
    clients: usize,
    bank: Vec<Dataset>,
}

impl ShardSource for BankShards {
    fn clients(&self) -> usize {
        self.clients
    }

    fn shard(&self, client: usize) -> Dataset {
        assert!(client < self.clients, "client out of range");
        self.bank[client % self.bank.len()].clone()
    }
}

/// A freshly assembled runtime of either kind.
#[derive(Debug)]
pub enum Runtime {
    /// `sync_cnn_adafl`, `fleet_100k_stream`, `robust_256_trimmed`.
    Sync(Box<SyncRuntime>),
    /// `async_cnn_fedbuff`.
    Async(Box<AsyncRuntime>),
}

/// What a traced synchronous repetition needs to evaluate the global
/// model itself after each `run_round`: the runtime keeps its own copy
/// private.
#[derive(Debug)]
pub struct EvalKit {
    /// A replica built from the same spec and seed as the runtime's.
    pub model: Model,
    /// A copy of the test set handed to the runtime.
    pub test: Dataset,
}

/// One set-up: the runtime plus, when traced, the evaluation kit.
#[derive(Debug)]
pub struct Built {
    /// The runtime, ready to run.
    pub runtime: Runtime,
    /// Present for traced synchronous runs.
    pub eval: Option<EvalKit>,
}

/// The instruments of a traced run.
#[derive(Debug, Clone)]
pub struct Instruments {
    /// Receives the decorators' spans.
    pub tracer: Arc<Tracer>,
    /// Receives the program's own spans and counters.
    pub recorder: SharedRecorder,
}

fn decorate(policies: SyncPolicies, tracer: &Arc<Tracer>) -> SyncPolicies {
    SyncPolicies {
        selection: Box::new(TimedSelection {
            inner: policies.selection,
            tracer: Arc::clone(tracer),
        }),
        compression: Box::new(TimedCompression {
            inner: policies.compression,
            tracer: Arc::clone(tracer),
        }),
        aggregation: Box::new(TimedAggregation {
            inner: policies.aggregation,
            tracer: Arc::clone(tracer),
        }),
        enforce_deadline: policies.enforce_deadline,
    }
}

fn baseline_policies(
    fl: &FlConfig,
    aggregation: Box<dyn adafl_fl::runtime::AggregationPolicy>,
) -> SyncPolicies {
    SyncPolicies {
        selection: Box::new(RandomSelection::new(fl.seed_for("selection"))),
        compression: Box::new(StaticCompressionPolicy::new(
            StaticCompression::None,
            fl.seed_for("compression"),
        )),
        aggregation,
        enforce_deadline: true,
    }
}

/// Finishes a synchronous set-up: decorates when traced, pins the pool
/// width and builds.
fn finish_sync(
    workload: Workload,
    builder: RuntimeBuilder,
    policies: SyncPolicies,
    test: &Dataset,
    instruments: Option<&Instruments>,
) -> Built {
    let fl = builder.fl().clone();
    let mut builder = builder.threads(Some(workload.pool_width()));
    let mut policies = policies;
    let mut eval = None;
    if let Some(ins) = instruments {
        policies = decorate(policies, &ins.tracer);
        builder = builder.recorder(Arc::clone(&ins.recorder));
        eval = Some(EvalKit {
            model: fl.model.build(fl.seed_for("model")),
            test: test.clone(),
        });
    }
    Built {
        runtime: Runtime::Sync(Box::new(builder.build_sync_runtime(policies))),
        eval,
    }
}

fn build_sync_cnn(seed: u64, length: Length, instruments: Option<&Instruments>) -> Built {
    use sync_cnn::*;
    let workload = Workload::SyncCnnAdafl;
    let (train, test) = task_data(CLIENTS * SAMPLES_PER_CLIENT, seed);
    let shards = Partitioner::LabelShards {
        shards_per_client: 2,
    }
    .split(&train, CLIENTS, sub_seed(seed, STREAM_PARTITION));
    let fl = FlConfig::builder()
        .clients(CLIENTS)
        .rounds(length.rounds(ROUNDS))
        .participation(0.5)
        .local_steps(LOCAL_STEPS)
        .batch_size(BATCH)
        .model(workload.model())
        .seed(seed)
        .build();
    // The first clients sit on constrained links whose bandwidth follows a
    // seeded random walk — the heterogeneity AdaFL's bandwidth term keys
    // on — made drop-free so no transfer fails.
    let link_seed = sub_seed(seed, STREAM_LINKS);
    let traces: Vec<LinkTrace> = (0..CLIENTS)
        .map(|c| {
            if c < CONSTRAINED_CLIENTS {
                LinkTrace::new(
                    LinkProfile::Constrained.spec().with_drop_prob(0.0),
                    TraceKind::RandomWalk {
                        step: 5.0,
                        min_scale: 0.3,
                        max_scale: 1.0,
                        seed: link_seed ^ c as u64,
                    },
                )
            } else {
                LinkTrace::constant(LinkProfile::Broadband.spec())
            }
        })
        .collect();
    let policies = adafl_sync_policies(&AdaFlConfig::default(), fl.seed_for("selection"));
    let builder = RuntimeBuilder::new(fl, test.clone())
        .shards(shards)
        .network(ClientNetwork::new(traces, link_seed))
        .compute(ComputeModel::uniform(CLIENTS, 0.1))
        .faults(FaultPlan::reliable(CLIENTS));
    finish_sync(workload, builder, policies, &test, instruments)
}

fn build_async_cnn(seed: u64, length: Length, instruments: Option<&Instruments>) -> Built {
    use async_cnn::*;
    let (train, test) = task_data(CLIENTS * SAMPLES_PER_CLIENT, seed);
    let shards = Partitioner::Iid.split(&train, CLIENTS, sub_seed(seed, STREAM_PARTITION));
    let fl = FlConfig::builder()
        .clients(CLIENTS)
        .local_steps(LOCAL_STEPS)
        .batch_size(BATCH)
        .model(Workload::AsyncCnnFedbuff.model())
        .seed(seed)
        .build();
    let link = LinkProfile::Cellular.spec().with_drop_prob(0.0);
    let network = ClientNetwork::new(
        vec![LinkTrace::constant(link); CLIENTS],
        sub_seed(seed, STREAM_LINKS),
    );
    // Fixed, unequal step times: arrivals interleave instead of tying, and
    // the number of uploads in flight at the end — part of the ledger —
    // is the same for every seed.
    let compute =
        ComputeModel::heterogeneous((0..CLIENTS).map(|c| 0.08 + 0.005 * c as f64).collect());
    let mut policy: Box<dyn adafl_fl::runtime::AsyncPolicy> = Box::new(StrategyAsyncPolicy::new(
        Box::new(FedBuff::new(BUFFER, SERVER_LR)),
    ));
    let mut builder = RuntimeBuilder::new(fl, test)
        .shards(shards)
        .network(network)
        .compute(compute)
        .faults(FaultPlan::reliable(CLIENTS))
        .update_budget(length.rounds((UPDATE_BUDGET / EVAL_EVERY) as usize) as u64 * EVAL_EVERY);
    if let Some(ins) = instruments {
        policy = Box::new(TimedAsync {
            inner: policy,
            tracer: Arc::clone(&ins.tracer),
        });
        builder = builder.recorder(Arc::clone(&ins.recorder));
    }
    let runtime = builder
        .build_async_runtime(policy)
        .expect("no sync-only option is set");
    Built {
        runtime: Runtime::Async(Box::new(runtime)),
        eval: None,
    }
}

fn build_fleet(seed: u64, length: Length, instruments: Option<&Instruments>) -> Built {
    use fleet::*;
    let workload = Workload::Fleet100kStream;
    let (train, test) = task_data(BANK * SAMPLES_PER_SHARD, seed);
    let bank = Partitioner::Iid.split(&train, BANK, sub_seed(seed, STREAM_PARTITION));
    let fl = FlConfig::builder()
        .clients(CLIENTS)
        .rounds(length.rounds(ROUNDS))
        .participation(PARTICIPANTS as f64 / CLIENTS as f64)
        .local_steps(LOCAL_STEPS)
        .batch_size(BATCH)
        .model(workload.model())
        .seed(seed)
        .cohort_size(COHORT)
        .edge_aggregators(EDGES)
        .build();
    let policies = baseline_policies(&fl, Box::new(AdaFlAggregation));
    let network = ClientNetwork::new(
        vec![LinkTrace::constant(LinkProfile::Broadband.spec()); CLIENTS],
        sub_seed(seed, STREAM_LINKS),
    );
    let mut source: Box<dyn ShardSource> = Box::new(BankShards {
        clients: CLIENTS,
        bank,
    });
    if let Some(ins) = instruments {
        source = Box::new(TimedShards {
            inner: source,
            tracer: Arc::clone(&ins.tracer),
        });
    }
    let builder = RuntimeBuilder::new(fl, test.clone())
        .shard_source(source)
        .network(network)
        .compute(ComputeModel::uniform(CLIENTS, 0.1))
        .faults(FaultPlan::reliable(CLIENTS));
    let built = finish_sync(workload, builder, policies, &test, instruments);
    if let Runtime::Sync(rt) = &built.runtime {
        assert_eq!(rt.sink_mode(), SinkMode::Streaming, "fleet must stream");
    }
    built
}

fn build_robust(seed: u64, length: Length, instruments: Option<&Instruments>) -> Built {
    use robust::*;
    let workload = Workload::Robust256Trimmed;
    let (train, test) = task_data(CLIENTS * SAMPLES_PER_CLIENT, seed);
    let shards = Partitioner::Iid.split(&train, CLIENTS, sub_seed(seed, STREAM_PARTITION));
    let fl = FlConfig::builder()
        .clients(CLIENTS)
        .rounds(length.rounds(ROUNDS))
        .participation(1.0)
        .local_steps(LOCAL_STEPS)
        .batch_size(BATCH)
        .model(workload.model())
        .seed(seed)
        .build();
    let policies = baseline_policies(
        &fl,
        Box::new(StrategyAggregation::new(Box::new(FedAvg::new()))),
    );
    let network = ClientNetwork::new(
        vec![LinkTrace::constant(LinkProfile::Broadband.spec()); CLIENTS],
        sub_seed(seed, STREAM_LINKS),
    );
    let faults = FaultPlan::with_fraction(
        CLIENTS,
        ATTACKERS,
        FaultKind::SignFlip,
        sub_seed(seed, STREAM_FAULTS),
    );
    let builder = RuntimeBuilder::new(fl, test.clone())
        .shards(shards)
        .network(network)
        .compute(ComputeModel::uniform(CLIENTS, 0.1))
        .faults(faults)
        .defense(Some(DefenseConfig::default()))
        .robust(Some(RobustMethod::TrimmedMean {
            trim_ratio: TRIM_RATIO,
        }));
    let built = finish_sync(workload, builder, policies, &test, instruments);
    if let Runtime::Sync(rt) = &built.runtime {
        assert_eq!(rt.sink_mode(), SinkMode::Legacy, "robust must buffer");
    }
    built
}

/// One whole set-up from `seed`: data generation, partition (or shard
/// bank), network, fault plan and `RuntimeBuilder::build_*_runtime`.
/// `instruments` decorates every policy and attaches the recorder.
pub fn build(
    workload: Workload,
    seed: u64,
    length: Length,
    instruments: Option<&Instruments>,
) -> Built {
    match workload {
        Workload::SyncCnnAdafl => build_sync_cnn(seed, length, instruments),
        Workload::AsyncCnnFedbuff => build_async_cnn(seed, length, instruments),
        Workload::Fleet100kStream => build_fleet(seed, length, instruments),
        Workload::Robust256Trimmed => build_robust(seed, length, instruments),
    }
}
