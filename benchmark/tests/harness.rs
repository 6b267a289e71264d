//! The harness's own promises: decorators change nothing, and the
//! estimator ignores a slow tail.

use adafl_benchmark::host::{faster_half_mean, paired};
use adafl_benchmark::trace::Tracer;
use adafl_benchmark::workloads::{build, Instruments, Length, Runtime, Workload};
use adafl_fl::{CommunicationLedger, RoundRecord};
use adafl_telemetry::InMemoryRecorder;

/// Final parameter bits, the whole ledger and the history of one short
/// run.
fn short_run(
    workload: Workload,
    instruments: Option<&Instruments>,
) -> (Vec<u32>, CommunicationLedger, Vec<RoundRecord>) {
    let mut runtime = build(workload, 5, Length::Short, instruments).runtime;
    let (history, params, ledger) = match &mut runtime {
        Runtime::Sync(rt) => (rt.run(), rt.global_params(), rt.ledger()),
        Runtime::Async(rt) => (rt.run(), rt.global_params(), rt.ledger()),
    };
    (
        params.iter().map(|p| p.to_bits()).collect(),
        ledger.clone(),
        history.records().to_vec(),
    )
}

/// Decorated and undecorated policies give bitwise-equal parameters,
/// ledgers and histories on a three-round run of every workload — every
/// trait method is forwarded.
#[test]
fn decorators_are_invisible() {
    for workload in Workload::ALL {
        let instruments = Instruments {
            tracer: Tracer::shared(),
            recorder: InMemoryRecorder::shared(),
        };
        let plain = short_run(workload, None);
        let decorated = short_run(workload, Some(&instruments));
        assert!(plain == decorated, "{} diverged", workload.name());
        assert!(
            !instruments.tracer.take().is_empty(),
            "{}: the decorators recorded nothing",
            workload.name()
        );
    }
}

/// The faster-half estimator ignores a slow tail: a stolen quantum or a
/// neighbour's burst inflates some repetitions, never deflates any.
#[test]
fn faster_half_ignores_a_slow_tail() {
    let calm = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99];
    let mut disturbed = calm;
    disturbed[1] = 1.9;
    disturbed[4] = 3.5;
    disturbed[6] = 1.4;
    let (a, b) = (faster_half_mean(&calm), faster_half_mean(&disturbed));
    assert!((a - b).abs() / a < 0.015, "{a} vs {b}");
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!((mean(&calm) - mean(&disturbed)).abs() / mean(&calm) > 0.2);

    // Odd counts keep the middle sample; one sample is its own mean.
    assert_eq!(faster_half_mean(&[3.0, 1.0, 2.0]), 1.5);
    assert_eq!(faster_half_mean(&[4.0]), 4.0);
    assert_eq!(faster_half_mean(&[]), 0.0);

    // A host twice as slow doubles both the repetitions and the samples;
    // the paired time does not move.
    let slow: Vec<f64> = calm.iter().map(|s| s * 2.0).collect();
    let fast_host = paired(&calm, &[1.0, 1.02, 1.3]);
    let slow_host = paired(&slow, &[2.0, 2.04, 2.6]);
    assert!((fast_host - slow_host).abs() < 1e-12);
}
