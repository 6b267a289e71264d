//! Defensive aggregation: the server-side gate protecting the global model
//! from corrupt or adversarial updates.
//!
//! One poisoned payload — a NaN from a truncated transfer, an Inf from a
//! bit flip, a 1e30 blow-up — would otherwise propagate through FedAvg's
//! mean into every client forever. The gate applies three screens, in the
//! spirit of ByzFL's robust-aggregation pre-filters:
//!
//! 1. **Scrub** — non-finite coordinates are zeroed; updates where more
//!    than a configurable fraction of coordinates are non-finite are
//!    rejected outright (the payload is garbage, not noise).
//! 2. **Norm screen** — updates whose L2 norm exceeds a configurable
//!    multiple of the running median norm are rejected (magnitude
//!    blow-ups and scaling attacks).
//! 3. **Quorum** — a synchronous round only aggregates when at least a
//!    quorum fraction of the expected cohort survives screening; below
//!    quorum the round is skipped and state carries forward.
//!
//! All norm arithmetic runs in `f64` so corrupted `f32` payloads near
//! `f32::MAX` cannot overflow the screen itself.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Thresholds of the defensive aggregation gate.
///
/// # Examples
///
/// ```
/// use adafl_fl::defense::{DefenseConfig, DefenseGate};
///
/// let mut gate = DefenseGate::new(DefenseConfig::default());
/// let mut update = vec![0.1f32; 100];
/// update[7] = f32::NAN; // 1% non-finite: scrubbed, not rejected
/// let scrubbed = gate.sanitize(&mut update).map(|ok| ok.scrubbed);
/// assert_eq!(scrubbed, Ok(1));
/// assert_eq!(update[7], 0.0);
/// ```
#[derive(Serialize, Deserialize, Debug, Clone, Copy, PartialEq)]
pub struct DefenseConfig {
    /// Reject an update whose L2 norm exceeds this multiple of the running
    /// median norm (once enough history exists).
    pub norm_multiple: f64,
    /// Number of accepted norms kept as the running-median window.
    pub norm_window: usize,
    /// Reject an update when more than this fraction of its coordinates is
    /// non-finite; below it they are scrubbed to zero.
    pub max_nonfinite_fraction: f64,
    /// Minimum fraction of the expected cohort that must survive screening
    /// for a synchronous round to aggregate (`0.0` disables the quorum).
    pub quorum: f64,
}

impl Default for DefenseConfig {
    fn default() -> Self {
        DefenseConfig {
            norm_multiple: 10.0,
            norm_window: 64,
            max_nonfinite_fraction: 0.05,
            quorum: 0.0,
        }
    }
}

impl DefenseConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics when `norm_multiple ≤ 1`, `norm_window == 0`, or a fraction
    /// is outside `[0, 1]`.
    pub fn validate(&self) {
        assert!(
            self.norm_multiple.is_finite() && self.norm_multiple > 1.0,
            "norm_multiple must be a finite value above 1"
        );
        assert!(self.norm_window >= 1, "norm_window must be at least 1");
        assert!(
            (0.0..=1.0).contains(&self.max_nonfinite_fraction),
            "max_nonfinite_fraction must be in [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.quorum),
            "quorum must be in [0, 1]"
        );
    }
}

/// Why the gate rejected an update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RejectReason {
    /// Too many non-finite coordinates to salvage by scrubbing.
    NonFinite,
    /// L2 norm exceeded the running-median screen.
    NormOutlier,
}

impl RejectReason {
    /// Stable label used in telemetry events.
    pub fn label(&self) -> &'static str {
        match self {
            RejectReason::NonFinite => "non_finite",
            RejectReason::NormOutlier => "norm_outlier",
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Result of sanitizing one update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sanitized {
    /// Non-finite coordinates scrubbed to zero.
    pub scrubbed: usize,
    /// L2 norm of the (scrubbed) update, computed in `f64`.
    pub norm: f64,
}

/// Minimum accepted norms before the median screen activates; screening
/// against a near-empty history would reject legitimate early variance.
const MIN_HISTORY: usize = 3;

/// Stateful defensive gate: holds the thresholds plus the running window
/// of accepted update norms.
#[derive(Debug, Clone)]
pub struct DefenseGate {
    cfg: DefenseConfig,
    norms: VecDeque<f64>,
}

impl DefenseGate {
    /// Creates a gate.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid
    /// (see [`DefenseConfig::validate`]).
    pub fn new(cfg: DefenseConfig) -> Self {
        cfg.validate();
        DefenseGate {
            cfg,
            norms: VecDeque::with_capacity(cfg.norm_window),
        }
    }

    /// The gate's configuration.
    pub fn config(&self) -> &DefenseConfig {
        &self.cfg
    }

    /// Screen 1: scrubs non-finite coordinates in place and measures the
    /// update. Does **not** consult or update the norm history — norm
    /// admission is a separate step so sync engines can screen a whole
    /// round's batch against one consistent median.
    ///
    /// # Errors
    ///
    /// Returns [`RejectReason::NonFinite`] when more than
    /// `max_nonfinite_fraction` of the coordinates is non-finite.
    pub fn sanitize(&self, update: &mut [f32]) -> Result<Sanitized, RejectReason> {
        let bad = update.iter().filter(|v| !v.is_finite()).count();
        if !update.is_empty() && bad as f64 > self.cfg.max_nonfinite_fraction * update.len() as f64
        {
            return Err(RejectReason::NonFinite);
        }
        let mut norm_sq = 0.0f64;
        for v in update.iter_mut() {
            if !v.is_finite() {
                *v = 0.0;
            }
            norm_sq += (*v as f64) * (*v as f64);
        }
        Ok(Sanitized {
            scrubbed: bad,
            norm: norm_sq.sqrt(),
        })
    }

    /// [`sanitize`](Self::sanitize) of each update in `group`, bit for bit.
    /// A group of four updates of one length is measured in one pass, one
    /// `f64` chain each: a finite sum of squares means every value was
    /// finite, so nothing is scrubbed and its root is the norm `sanitize`
    /// computes in the same order. Every other update takes `sanitize`.
    pub(crate) fn sanitize_group(
        &self,
        group: &mut [&mut [f32]],
    ) -> Vec<Result<Sanitized, RejectReason>> {
        let sums = match group {
            [a, b, c, d] if [b.len(), c.len(), d.len()] == [a.len(); 3] => {
                Some(sums_of_squares([a, b, c, d]))
            }
            _ => None,
        };
        let clean = |i: usize| sums.map(|s| s[i]).filter(|sum| sum.is_finite());
        (0..group.len())
            .map(|i| match clean(i) {
                Some(sum) => Ok(Sanitized {
                    scrubbed: 0,
                    norm: sum.sqrt(),
                }),
                None => self.sanitize(group[i]),
            })
            .collect()
    }

    /// Screen 2 for a synchronous round: admits or rejects each norm in
    /// `batch` against the median of history ∪ batch, then pushes the
    /// admitted norms into the history window. Screening the batch against
    /// one median (rather than sequentially) keeps the decision independent
    /// of client iteration order.
    pub fn admit_batch(&mut self, batch: &[f64]) -> Vec<bool> {
        let mut reference: Vec<f64> = self.norms.iter().copied().collect();
        reference.extend_from_slice(batch);
        let verdicts: Vec<bool> = if reference.len() < MIN_HISTORY {
            vec![true; batch.len()]
        } else {
            let median = median(&mut reference);
            batch
                .iter()
                .map(|&n| median == 0.0 || n <= self.cfg.norm_multiple * median)
                .collect()
        };
        for (&n, &ok) in batch.iter().zip(&verdicts) {
            if ok {
                if self.norms.len() == self.cfg.norm_window {
                    self.norms.pop_front();
                }
                self.norms.push_back(n);
            }
        }
        verdicts
    }

    /// Screen 2 for an asynchronous arrival: a batch of one.
    pub fn admit(&mut self, norm: f64) -> bool {
        self.admit_batch(&[norm])[0]
    }

    /// Screen 3: whether `accepted` survivors out of `expected` cohort
    /// members satisfy the quorum. Always true when the quorum is disabled
    /// or the expected cohort is empty.
    pub fn quorum_met(&self, accepted: usize, expected: usize) -> bool {
        expected == 0 || accepted as f64 >= self.cfg.quorum * expected as f64
    }
}

/// `Σ v²` in `f64` of four equal-length rows, each on its own chain in
/// ascending order (as `sanitize` sums), so the chains overlap. An `f32`
/// squares far below `f64::MAX`: a sum is finite exactly when its row is.
fn sums_of_squares(rows: [&[f32]; 4]) -> [f64; 4] {
    let len = rows[0].len();
    let rows = rows.map(|r| &r[..len]);
    let mut sums = [0.0f64; 4];
    for i in 0..len {
        for (sum, row) in sums.iter_mut().zip(&rows) {
            *sum += f64::from(row[i]) * f64::from(row[i]);
        }
    }
    sums
}

/// Median of a scratch slice (sorts it). **Tie-break:** an even count
/// takes the arithmetic mean of the two middle values, `(v[n/2−1] +
/// v[n/2]) / 2` — symmetric, so the reference never biases toward the
/// lower or upper half of the window and reversing the input changes
/// nothing. Pinned by `even_count_median_averages_the_middle_pair`.
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate() -> DefenseGate {
        DefenseGate::new(DefenseConfig::default())
    }

    #[test]
    fn even_count_median_averages_the_middle_pair() {
        // Satellite: pin the running-median tie-break. An even window
        // interpolates the two middle values symmetrically — the reference
        // for [1, 2, 3, 10] is 2.5, not 2 (lower) or 3 (upper) — and is
        // invariant under reversing the input.
        let mut w = [1.0, 2.0, 3.0, 10.0];
        assert_eq!(median(&mut w), 2.5);
        let mut r = [10.0, 3.0, 2.0, 1.0];
        assert_eq!(median(&mut r), 2.5);
        let mut odd = [5.0, 1.0, 3.0];
        assert_eq!(median(&mut odd), 3.0);
        assert_eq!(median(&mut []), 0.0);
        // The batch screen inherits the symmetric reference: with history
        // [1, 2, 3] and batch [10], the decision median is 2.5, so a
        // norm_multiple of 3 admits anything ≤ 7.5 and rejects the 10.
        let cfg = DefenseConfig {
            norm_multiple: 3.0,
            ..DefenseConfig::default()
        };
        let mut gate = DefenseGate::new(cfg);
        assert_eq!(gate.admit_batch(&[1.0, 2.0, 3.0]), vec![true; 3]);
        assert_eq!(gate.admit_batch(&[10.0]), vec![false]);
        assert_eq!(gate.admit_batch(&[7.0]), vec![true]);
    }

    #[test]
    fn group_screen_matches_per_update_sanitize_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let g = gate();
        // Finite rows of several lengths, screened four at a time as the
        // stage does (groups of one length, groups that mix two, short last
        // groups), some salted with a few non-finite values (scrubbed) or
        // many (rejected).
        for group_len in 0..=13usize {
            let rows: Vec<Vec<f32>> = (0..group_len)
                .map(|i| {
                    let len = if i % 5 == 3 { 17 } else { 64 };
                    let mut row: Vec<f32> = (0..len).map(|_| rng.gen_range(-1e3f32..1e3)).collect();
                    match rng.gen_range(0..4u32) {
                        0 => row[rng.gen_range(0..len)] = f32::NAN,
                        1 => row[rng.gen_range(0..len)] = f32::NEG_INFINITY,
                        2 => row.iter_mut().step_by(3).for_each(|v| *v = f32::INFINITY),
                        _ => {}
                    }
                    row
                })
                .collect();
            let mut fast = rows.clone();
            let mut slow = rows;
            let mut views: Vec<&mut [f32]> = fast.iter_mut().map(Vec::as_mut_slice).collect();
            let got: Vec<_> = views
                .chunks_mut(4)
                .flat_map(|q| g.sanitize_group(q))
                .collect();
            let want: Vec<_> = slow.iter_mut().map(|u| g.sanitize(u)).collect();
            let key =
                |r: &Result<Sanitized, RejectReason>| r.map(|s| (s.scrubbed, s.norm.to_bits()));
            assert_eq!(
                got.iter().map(key).collect::<Vec<_>>(),
                want.iter().map(key).collect::<Vec<_>>()
            );
            let bits = |rows: &[Vec<f32>]| -> Vec<Vec<u32>> {
                rows.iter()
                    .map(|r| r.iter().map(|v| v.to_bits()).collect())
                    .collect()
            };
            assert_eq!(bits(&fast), bits(&slow), "group of {group_len}");
        }
    }

    #[test]
    fn scrubs_sparse_nonfinite_values() {
        let g = gate();
        let mut u = vec![1.0f32; 100];
        u[7] = f32::NAN;
        u[50] = f32::INFINITY;
        let s = g.sanitize(&mut u).unwrap();
        assert_eq!(s.scrubbed, 2);
        assert_eq!(u[7], 0.0);
        assert_eq!(u[50], 0.0);
        assert!((s.norm - (98f64).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn rejects_mostly_nonfinite_payloads() {
        let g = gate();
        let mut u = vec![f32::NAN; 10];
        u[0] = 1.0;
        assert_eq!(g.sanitize(&mut u), Err(RejectReason::NonFinite));
    }

    #[test]
    fn norm_in_f64_survives_f32_blowups() {
        let g = gate();
        let mut u = vec![1e30f32; 4];
        let s = g.sanitize(&mut u).unwrap();
        assert!(s.norm.is_finite());
        assert!((s.norm - 2e30).abs() / 2e30 < 1e-6);
    }

    #[test]
    fn norm_screen_rejects_outliers_after_warmup() {
        let mut g = gate();
        // Warm up with unit-norm updates.
        assert!(g.admit_batch(&[1.0, 1.1, 0.9, 1.0]).iter().all(|&v| v));
        let verdicts = g.admit_batch(&[1.05, 1e6, 0.95]);
        assert_eq!(verdicts, vec![true, false, true]);
        // The outlier was not pushed into history.
        assert!(g.admit(1.0));
    }

    #[test]
    fn screen_stays_open_before_min_history() {
        let mut g = gate();
        // Fewer than MIN_HISTORY reference points: everything passes.
        assert_eq!(g.admit_batch(&[5.0, 1e9]), vec![true, true]);
    }

    #[test]
    fn zero_median_keeps_gate_open() {
        let mut g = gate();
        assert!(g.admit_batch(&[0.0, 0.0, 0.0]).iter().all(|&v| v));
        // All-zero history → median 0 → any norm admitted.
        assert!(g.admit(42.0));
    }

    #[test]
    fn batch_median_is_order_independent() {
        let run = |batch: &[f64]| {
            let mut g = gate();
            g.admit_batch(&[1.0, 1.0, 1.0]);
            g.admit_batch(batch)
        };
        let a = run(&[1.0, 1e6, 0.9]);
        let b = run(&[0.9, 1.0, 1e6]);
        assert_eq!(a[1], b[2]);
        assert_eq!(a[0], b[1]);
    }

    #[test]
    fn history_window_is_bounded() {
        let cfg = DefenseConfig {
            norm_window: 4,
            ..DefenseConfig::default()
        };
        let mut g = DefenseGate::new(cfg);
        for _ in 0..100 {
            g.admit(1.0);
        }
        assert!(g.norms.len() <= 4);
    }

    #[test]
    fn quorum_logic() {
        let cfg = DefenseConfig {
            quorum: 0.5,
            ..DefenseConfig::default()
        };
        let g = DefenseGate::new(cfg);
        assert!(g.quorum_met(5, 10));
        assert!(g.quorum_met(6, 10));
        assert!(!g.quorum_met(4, 10));
        assert!(g.quorum_met(0, 0));
        // Disabled quorum always passes.
        assert!(gate().quorum_met(0, 10));
    }

    #[test]
    fn empty_update_sanitizes_to_zero_norm() {
        let s = gate().sanitize(&mut []).unwrap();
        assert_eq!(
            s,
            Sanitized {
                scrubbed: 0,
                norm: 0.0
            }
        );
    }

    #[test]
    #[should_panic(expected = "norm_multiple")]
    fn invalid_multiple_panics() {
        DefenseGate::new(DefenseConfig {
            norm_multiple: 1.0,
            ..DefenseConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "quorum")]
    fn invalid_quorum_panics() {
        DefenseGate::new(DefenseConfig {
            quorum: 1.5,
            ..DefenseConfig::default()
        });
    }
}
