//! Fault injection for the paper's resiliency study (Figure 1).
//!
//! A [`FaultPlan`] assigns one [`FaultKind`] per client; the engines query
//! it each round. The three conditions mirror Section III:
//!
//! * **Dropout** — a high-latency client in synchronous FL whose update only
//!   reaches the server every other round.
//! * **DataLoss** — an unreliable link that loses the client's update with
//!   some probability.
//! * **Stale** — an asynchronous client training `factor×` slower, so its
//!   contributions are based on outdated global models.
//!
//! Two further kinds extend the study to compounded chaos sweeps:
//!
//! * **Crash** — the client disappears for a window of rounds and later
//!   recovers its state from a [`Checkpoint`](crate::checkpoint::Checkpoint).
//! * **Corruption** — the serialized update is corrupted in transit
//!   (seeded NaN/Inf injection and magnitude blow-ups), the adversary the
//!   server's defensive aggregation gate must survive.
//!
//! Three further kinds model *Byzantine* clients — compromised devices
//! sending well-formed but adversarial updates, the threat the
//! [`robust`](crate::robust) pre-aggregators defend against. Attacks
//! rewrite the **transmitted values** via [`attack_payload`] — in place for
//! dense and sparse payloads, through the one scale field of a packed
//! frame — so, like corruption, the frame stays the one a wire would carry:
//!
//! * **SignFlip** — every transmitted value is negated, pushing the
//!   aggregate *away* from the honest descent direction while preserving
//!   the update's norm (invisible to the norm screen).
//! * **Boost** — every transmitted value is scaled by a factor, the
//!   model-replacement/scaled-poisoning attack.
//! * **LittleIsEnough** — colluders replace their update with a shared
//!   small adversarial direction scaled to `ε · ‖own update‖`, staying
//!   inside the norm envelope. The direction is drawn from an RNG stream
//!   derived from the plan seed and the round, so all colluders move the
//!   aggregate the same way without any runtime coordination.

use crate::runtime::UpdatePayload;
use adafl_compression::codec::{DENSE_HEADER_BYTES, SPARSE_HEADER_BYTES, SPARSE_PAIR_BYTES};
use adafl_compression::DecodeError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Failure behaviour of one client.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum FaultKind {
    /// Healthy client.
    Reliable,
    /// Update reaches the server only once every `period` rounds
    /// (the paper uses `period = 2`: "every other communication round").
    Dropout {
        /// Update delivery period in rounds (≥ 2).
        period: usize,
    },
    /// Each update is lost independently with probability `prob`.
    DataLoss {
        /// Loss probability in `[0, 1]`.
        prob: f64,
    },
    /// Trains `factor×` slower than nominal (async staleness; the paper
    /// uses `factor = 3`).
    Stale {
        /// Slowdown factor (> 1).
        factor: f64,
    },
    /// Client crashes at `at_round`, is unreachable for `down_for` rounds,
    /// then recovers its state from a checkpoint and resumes.
    Crash {
        /// Round at which the outage begins.
        at_round: usize,
        /// Outage length in rounds (≥ 1).
        down_for: usize,
    },
    /// Each update is corrupted in transit with probability `prob`
    /// (non-finite values and magnitude blow-ups injected into the
    /// serialized payload). The update still *arrives* — surviving it is
    /// the defensive aggregation gate's job.
    Corruption {
        /// Corruption probability in `[0, 1]`.
        prob: f64,
    },
    /// Byzantine: every transmitted value is negated. Norm-preserving, so
    /// only robust aggregation catches it.
    SignFlip,
    /// Byzantine: every transmitted value is scaled by `factor` (the
    /// scaled-poisoning / model-replacement attack).
    Boost {
        /// Multiplier applied to each value (finite, ≠ 1).
        factor: f64,
    },
    /// Byzantine: "a little is enough" collusion — the update is replaced
    /// by a shared adversarial direction scaled to `epsilon` times the
    /// honest update's norm, staying inside the defense gate's norm
    /// envelope. All colluders in a round derive the direction from the
    /// same [`FaultPlan::collusion_seed`].
    LittleIsEnough {
        /// Relative magnitude of the poisoned update (> 0).
        epsilon: f64,
    },
}

impl FaultKind {
    /// The kind's canonical lowercase name, round-tripping through
    /// [`FromStr`](std::str::FromStr) — the spelling JSON experiment
    /// configs and telemetry fields use.
    pub fn as_str(&self) -> &'static str {
        match self {
            FaultKind::Reliable => "reliable",
            FaultKind::Dropout { .. } => "dropout",
            FaultKind::DataLoss { .. } => "dataloss",
            FaultKind::Stale { .. } => "stale",
            FaultKind::Crash { .. } => "crash",
            FaultKind::Corruption { .. } => "corruption",
            FaultKind::SignFlip => "sign-flip",
            FaultKind::Boost { .. } => "boost",
            FaultKind::LittleIsEnough { .. } => "little-is-enough",
        }
    }

    /// Checks the kind's parameters.
    ///
    /// # Errors
    ///
    /// Returns the violated constraint: `period < 2`, `prob ∉ [0,1]`,
    /// `factor ≤ 1`, `down_for = 0`, a non-finite or identity boost factor,
    /// `epsilon ≤ 0`.
    pub fn validate(&self) -> Result<(), &'static str> {
        let unit = |prob: f64| (0.0..=1.0).contains(&prob);
        match *self {
            FaultKind::Dropout { period } if period < 2 => Err("dropout period must be ≥ 2"),
            FaultKind::DataLoss { prob } if !unit(prob) => Err("loss probability must be in [0,1]"),
            FaultKind::Stale { factor } if factor.is_nan() || factor <= 1.0 => {
                Err("staleness factor must exceed 1")
            }
            FaultKind::Crash { down_for: 0, .. } => Err("crash outage must last at least 1 round"),
            FaultKind::Corruption { prob } if !unit(prob) => {
                Err("corruption probability must be in [0,1]")
            }
            FaultKind::Boost { factor } if !factor.is_finite() || factor == 1.0 => {
                Err("boost factor must be finite and ≠ 1")
            }
            FaultKind::LittleIsEnough { epsilon } if !(epsilon.is_finite() && epsilon > 0.0) => {
                Err("little-is-enough epsilon must be finite and > 0")
            }
            _ => Ok(()),
        }
    }

    /// Whether this kind is a Byzantine attack applied through
    /// [`attack_payload`] (as opposed to a delivery/timing/corruption
    /// fault).
    pub fn is_attack(&self) -> bool {
        matches!(
            self,
            FaultKind::SignFlip | FaultKind::Boost { .. } | FaultKind::LittleIsEnough { .. }
        )
    }
}

impl std::str::FromStr for FaultKind {
    type Err = String;

    /// Parses `name[:param[:param]]`: a canonical kind name
    /// (case-insensitive), then its parameters in declaration order. An
    /// omitted parameter keeps its default: `dropout` → period 2,
    /// `dataloss` → prob 0.5, `stale` → factor 3, `crash` → round 2 for 2,
    /// `corruption` → prob 0.5, `boost` → factor 10, `little-is-enough`
    /// (alias `lie`) → epsilon 0.3. The Byzantine chaos matrix spells its
    /// sign-reversing boost `boost:-10`.
    ///
    /// # Errors
    ///
    /// An unknown name, a parameter that does not parse or that
    /// [`FaultKind::validate`] refuses, or more parameters than the kind has.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (name, mut params) = crate::spec::split(s);
        let kind = match name.as_str() {
            "reliable" => FaultKind::Reliable,
            "dropout" => FaultKind::Dropout {
                period: params.next("period", 2)?,
            },
            "dataloss" | "data-loss" => FaultKind::DataLoss {
                prob: params.next("probability", 0.5)?,
            },
            "stale" => FaultKind::Stale {
                factor: params.next("factor", 3.0)?,
            },
            "crash" => FaultKind::Crash {
                at_round: params.next("start round", 2)?,
                down_for: params.next("outage length", 2)?,
            },
            "corruption" => FaultKind::Corruption {
                prob: params.next("probability", 0.5)?,
            },
            "sign-flip" | "sign_flip" | "signflip" => FaultKind::SignFlip,
            "boost" => FaultKind::Boost {
                factor: params.next("factor", 10.0)?,
            },
            "little-is-enough" | "little_is_enough" | "lie" => FaultKind::LittleIsEnough {
                epsilon: params.next("epsilon", 0.3)?,
            },
            other => {
                return Err(format!(
                    "unknown fault kind {other:?}; expected one of reliable, \
                     dropout, dataloss, stale, crash, corruption, sign-flip, \
                     boost, little-is-enough"
                ))
            }
        };
        params.done()?;
        kind.validate()
            .map_err(|reason| format!("{s:?}: {reason}"))?;
        Ok(kind)
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Corrupts `delta` in place using a seeded pattern: roughly 1% of
/// coordinates (at least 3, when the vector is non-empty) are overwritten
/// with NaN, ±Inf, or ±1e30 blow-ups — the payloads a bit-flipped or
/// truncated wire transfer produces in practice.
pub fn corrupt_update(delta: &mut [f32], seed: u64) {
    if delta.is_empty() {
        return;
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0_44);
    let hits = (delta.len() / 100).max(3).min(delta.len());
    for _ in 0..hits {
        let idx = rng.gen_range(0..delta.len());
        delta[idx] = corruption_pattern(&mut rng);
    }
}

/// One corrupted coordinate value: NaN, ±Inf, or a ±1e30 blow-up.
fn corruption_pattern(rng: &mut StdRng) -> f32 {
    match rng.gen_range(0..5usize) {
        0 => f32::NAN,
        1 => f32::INFINITY,
        2 => f32::NEG_INFINITY,
        3 => 1e30,
        _ => -1e30,
    }
}

/// Corrupts a payload's **encoded bytes** in place and re-decodes them —
/// the byte-real form of [`corrupt_update`].
///
/// Dense and sparse frames take the same seeded pattern, written into
/// value slots of the encoded buffer, so the decoded result is bit-exact
/// with the legacy in-memory corruption (the golden traces pin this) and
/// the frame always re-parses — surviving those values is the defensive
/// gate's job. Quantized and ternary frames take raw byte overwrites
/// anywhere in the frame; a hit that lands in the header makes the
/// decoder reject the whole update.
///
/// Every overwrite preserves the frame length, so the ledger charge
/// (`encoded_len()`) is unaffected either way.
///
/// # Errors
///
/// Returns the decoder's verdict when the corrupted bytes no longer
/// parse; the payload is left untouched (the runtime drops it on arrival
/// — the bytes still travelled and were charged).
pub fn corrupt_payload(payload: &mut UpdatePayload, seed: u64) -> Result<(), DecodeError> {
    // A sub-view frame corrupts in its inner payload's value bytes: the
    // descriptor header is simulation framing (a real transport would
    // checksum it separately), and recursing keeps the per-form flip
    // positions identical to full-width traffic.
    if let UpdatePayload::SubView { inner, .. } = payload {
        return corrupt_payload(inner, seed);
    }
    let mut bytes = payload.encode();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0_44);
    match payload {
        UpdatePayload::Dense(d) => {
            let slots = d.len();
            if slots == 0 {
                return Ok(());
            }
            let hits = (slots / 100).max(3).min(slots);
            for _ in 0..hits {
                let at = DENSE_HEADER_BYTES + 4 * rng.gen_range(0..slots);
                bytes[at..at + 4].copy_from_slice(&corruption_pattern(&mut rng).to_le_bytes());
            }
        }
        UpdatePayload::Sparse(s) => {
            let slots = s.nnz();
            if slots == 0 {
                return Ok(());
            }
            let hits = (slots / 100).max(3).min(slots);
            for _ in 0..hits {
                let at = SPARSE_HEADER_BYTES + SPARSE_PAIR_BYTES * rng.gen_range(0..slots) + 4;
                bytes[at..at + 4].copy_from_slice(&corruption_pattern(&mut rng).to_le_bytes());
            }
        }
        UpdatePayload::Quantized { .. } | UpdatePayload::Ternary { .. } => {
            let slots = bytes.len();
            let hits = (slots / 100).max(3).min(slots);
            for _ in 0..hits {
                let at = rng.gen_range(0..slots);
                bytes[at] = rng.gen::<u8>();
            }
        }
        UpdatePayload::SubView { .. } => unreachable!("handled by recursion above"),
    }
    let form = payload.form();
    *payload = UpdatePayload::decode(form, &bytes)?;
    Ok(())
}

/// Applies a Byzantine attack to a payload's transmitted values in place —
/// the adversarial sibling of [`corrupt_payload`].
///
/// Dense and sparse payloads have every value rewritten with the attacked
/// value (sign-flip negates, boost scales, little-is-enough substitutes the
/// shared collusion direction scaled to `ε·‖values‖`), straight in
/// `values_mut()`: an `f32` round-trips through its little-endian wire
/// bytes exactly, NaN payloads included, so this is the frame the rewritten
/// bytes would decode to. Quantized and ternary frames carry one `f32`
/// scale that every decoded value is linear in, so the attack rewrites
/// just that header field and re-decodes: sign-flip negates it, boost
/// multiplies it, and little-is-enough shrinks it to `−ε·scale` — the
/// packed-form approximation of the dense attack. No header or length
/// byte changes, so the frame stays well-formed and the ledger charge
/// (`encoded_len()`) is unchanged: Byzantine updates are *well-formed*,
/// which is exactly why the decoder and the defense gate cannot stop them.
///
/// `collusion_seed` only matters for [`FaultKind::LittleIsEnough`]; pass
/// [`FaultPlan::collusion_seed`] for the current round so colluders agree
/// on the direction.
///
/// # Panics
///
/// Panics when `kind` is not a Byzantine attack
/// ([`FaultKind::is_attack`]).
pub fn attack_payload(payload: &mut UpdatePayload, kind: FaultKind, collusion_seed: u64) {
    assert!(kind.is_attack(), "{kind} is not a Byzantine attack kind");
    match payload {
        // Attackers rewrite the values they transmit; for a sub-view that
        // is the inner view-local payload (a Byzantine client cannot forge
        // the descriptor without the server noticing the length mismatch).
        UpdatePayload::SubView { inner, .. } => attack_payload(inner, kind, collusion_seed),
        UpdatePayload::Dense(d) => attack_values(kind, d.values_mut(), collusion_seed),
        UpdatePayload::Sparse(s) => attack_values(kind, s.values_mut(), collusion_seed),
        UpdatePayload::Quantized { .. } | UpdatePayload::Ternary { .. } => {
            // Both packed headers end with the f32 scale at bytes 8..12
            // (QUANTIZED_HEADER_BYTES == TERNARY_HEADER_BYTES == 12), and
            // both decoders are linear in it.
            let mut bytes = payload.encode();
            let at = PACKED_SCALE_OFFSET;
            let scale = f32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 scale bytes"));
            let poisoned = match kind {
                FaultKind::SignFlip => -scale,
                FaultKind::Boost { factor } => factor as f32 * scale,
                FaultKind::LittleIsEnough { epsilon } => -(epsilon as f32) * scale,
                _ => unreachable!("gated by is_attack"),
            };
            bytes[at..at + 4].copy_from_slice(&poisoned.to_le_bytes());
            let form = payload.form();
            *payload = UpdatePayload::decode(form, &bytes)
                .expect("a scale rewrite preserves frame structure");
        }
    }
}

/// Byte offset of the `f32` scale/norm field shared by the two packed
/// wire headers.
const PACKED_SCALE_OFFSET: usize = 8;

/// Rewrites a slice of transmitted values with their attacked replacement.
fn attack_values(kind: FaultKind, values: &mut [f32], collusion_seed: u64) {
    match kind {
        FaultKind::SignFlip => values.iter_mut().for_each(|v| *v = -*v),
        FaultKind::Boost { factor } => values.iter_mut().for_each(|v| *v *= factor as f32),
        FaultKind::LittleIsEnough { epsilon } => {
            let norm = values
                .iter()
                .map(|&v| f64::from(v) * f64::from(v))
                .sum::<f64>()
                .sqrt();
            if values.is_empty() || norm == 0.0 {
                return;
            }
            // All colluders seed the same stream, so updates of equal
            // length (every dense/packed client) poison in the *same*
            // direction; sparse colluders agree on the leading
            // coordinates of that direction within their own support.
            let mut rng = StdRng::seed_from_u64(collusion_seed ^ 0x11E);
            let mut dir: Vec<f64> = (0..values.len())
                .map(|_| rng.gen::<f64>() * 2.0 - 1.0)
                .collect();
            let mut dir_norm = dir.iter().map(|d| d * d).sum::<f64>().sqrt();
            if dir_norm == 0.0 {
                dir[0] = 1.0;
                dir_norm = 1.0;
            }
            let scale = epsilon * norm / dir_norm;
            for (v, &d) in values.iter_mut().zip(&dir) {
                *v = (scale * d) as f32;
            }
        }
        _ => unreachable!("gated by is_attack"),
    }
}

/// A per-client fault assignment with seeded stochastic evaluation.
///
/// # Examples
///
/// ```
/// use adafl_fl::faults::{FaultKind, FaultPlan};
///
/// let plan = FaultPlan::with_fraction(10, 0.2, FaultKind::Dropout { period: 2 }, 1);
/// assert_eq!(plan.affected_clients().len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct FaultPlan {
    kinds: Vec<FaultKind>,
    rng: StdRng,
    /// Base seed for per-round collusion streams; independent of the plan
    /// RNG so attacks never perturb delivery/corruption sequences.
    attack_seed: u64,
}

impl FaultPlan {
    /// All clients reliable.
    pub fn reliable(clients: usize) -> Self {
        FaultPlan {
            kinds: vec![FaultKind::Reliable; clients],
            rng: StdRng::seed_from_u64(0),
            attack_seed: 0xB12A,
        }
    }

    /// Creates a plan from explicit per-client kinds.
    ///
    /// # Panics
    ///
    /// Panics when `kinds` is empty or [`FaultKind::validate`] refuses one.
    pub fn new(kinds: Vec<FaultKind>, seed: u64) -> Self {
        assert!(!kinds.is_empty(), "need at least one client");
        for k in &kinds {
            k.validate().unwrap_or_else(|reason| panic!("{reason}"));
        }
        FaultPlan {
            kinds,
            rng: StdRng::seed_from_u64(seed ^ 0xFA17),
            attack_seed: seed ^ 0xB12A,
        }
    }

    /// Marks the **first** `⌊fraction·clients⌋` clients with `kind` — the
    /// paper's "proportion of unreliable clients" knob.
    ///
    /// # Panics
    ///
    /// Panics when `clients` is zero or `fraction` is outside `[0, 1]`.
    pub fn with_fraction(clients: usize, fraction: f64, kind: FaultKind, seed: u64) -> Self {
        assert!(clients > 0, "need at least one client");
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction must be in [0, 1]"
        );
        let affected = (fraction * clients as f64).round() as usize;
        let kinds = (0..clients)
            .map(|i| {
                if i < affected {
                    kind
                } else {
                    FaultKind::Reliable
                }
            })
            .collect();
        FaultPlan::new(kinds, seed)
    }

    /// Number of clients in the plan.
    pub fn clients(&self) -> usize {
        self.kinds.len()
    }

    /// Fault kind of one client.
    ///
    /// # Panics
    ///
    /// Panics when `client` is out of bounds.
    pub fn kind(&self, client: usize) -> FaultKind {
        self.kinds[client]
    }

    /// Indices of non-reliable clients.
    pub fn affected_clients(&self) -> Vec<usize> {
        self.kinds
            .iter()
            .enumerate()
            .filter(|(_, k)| !matches!(k, FaultKind::Reliable))
            .map(|(i, _)| i)
            .collect()
    }

    /// Whether `client`'s update reaches the server in `round`
    /// (evaluates dropout periods and data-loss randomness; staleness always
    /// delivers — it is a *timing* fault handled by the compute model).
    ///
    /// # Panics
    ///
    /// Panics when `client` is out of bounds.
    pub fn update_delivered(&mut self, client: usize, round: usize) -> bool {
        match self.kinds[client] {
            FaultKind::Reliable
            | FaultKind::Stale { .. }
            | FaultKind::Corruption { .. }
            | FaultKind::SignFlip
            | FaultKind::Boost { .. }
            | FaultKind::LittleIsEnough { .. } => true,
            FaultKind::Dropout { period } => round % period == period - 1,
            FaultKind::DataLoss { prob } => self.rng.gen::<f64>() >= prob,
            FaultKind::Crash { .. } => !self.crashed(client, round),
        }
    }

    /// Whether `client` is inside its crash outage window during `round`.
    ///
    /// # Panics
    ///
    /// Panics when `client` is out of bounds.
    pub fn crashed(&self, client: usize, round: usize) -> bool {
        match self.kinds[client] {
            FaultKind::Crash { at_round, down_for } => {
                round >= at_round && round < at_round + down_for
            }
            _ => false,
        }
    }

    /// Whether `round` is the exact round in which `client` comes back
    /// from its crash outage (the engine restores it from a checkpoint).
    ///
    /// # Panics
    ///
    /// Panics when `client` is out of bounds.
    pub fn recovers_at(&self, client: usize, round: usize) -> bool {
        match self.kinds[client] {
            FaultKind::Crash { at_round, down_for } => round == at_round + down_for,
            _ => false,
        }
    }

    /// For a [`FaultKind::Corruption`] client, decides whether this round's
    /// update is corrupted; returns a fresh seed for
    /// [`corrupt_update`] when it is. Draws from the plan RNG **only** for
    /// corruption clients, so adding one to a fleet never perturbs the
    /// loss sequences of other fault kinds.
    ///
    /// # Panics
    ///
    /// Panics when `client` is out of bounds.
    pub fn corrupts_update(&mut self, client: usize) -> Option<u64> {
        match self.kinds[client] {
            FaultKind::Corruption { prob } => {
                if self.rng.gen::<f64>() < prob {
                    Some(self.rng.gen::<u64>())
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// For a Byzantine client, the attack to apply to this uplink via
    /// [`attack_payload`]; `None` for honest and merely-faulty clients.
    /// Attacks fire every round and draw nothing from the plan RNG, so
    /// adding an attacker to a fleet never perturbs the loss/corruption
    /// sequences of other fault kinds (same guarantee as
    /// [`FaultPlan::corrupts_update`]).
    ///
    /// # Panics
    ///
    /// Panics when `client` is out of bounds.
    pub fn attacks_update(&self, client: usize) -> Option<FaultKind> {
        let kind = self.kinds[client];
        kind.is_attack().then_some(kind)
    }

    /// The shared seed colluding attackers use in `round` (the
    /// [`FaultKind::LittleIsEnough`] direction stream): derived from the
    /// plan seed, identical for every colluder, different every round.
    pub fn collusion_seed(&self, round: usize) -> u64 {
        self.attack_seed ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Compute-time slowdown factor of one client (1.0 unless stale).
    ///
    /// # Panics
    ///
    /// Panics when `client` is out of bounds.
    pub fn slowdown(&self, client: usize) -> f64 {
        match self.kinds[client] {
            FaultKind::Stale { factor } => factor,
            _ => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reliable_plan_always_delivers() {
        let mut plan = FaultPlan::reliable(3);
        for round in 0..10 {
            for c in 0..3 {
                assert!(plan.update_delivered(c, round));
            }
        }
        assert!(plan.affected_clients().is_empty());
    }

    #[test]
    fn dropout_delivers_every_other_round() {
        let mut plan = FaultPlan::new(vec![FaultKind::Dropout { period: 2 }], 0);
        let delivered: Vec<bool> = (0..6).map(|r| plan.update_delivered(0, r)).collect();
        assert_eq!(delivered, vec![false, true, false, true, false, true]);
    }

    #[test]
    fn data_loss_rate_matches_probability() {
        let mut plan = FaultPlan::new(vec![FaultKind::DataLoss { prob: 0.25 }], 3);
        let delivered = (0..4000).filter(|&r| plan.update_delivered(0, r)).count();
        let rate = delivered as f64 / 4000.0;
        assert!((rate - 0.75).abs() < 0.03, "delivery rate {rate}");
    }

    #[test]
    fn stale_clients_deliver_but_slow_down() {
        let mut plan = FaultPlan::new(vec![FaultKind::Stale { factor: 3.0 }], 0);
        assert!(plan.update_delivered(0, 0));
        assert_eq!(plan.slowdown(0), 3.0);
        assert_eq!(FaultPlan::reliable(1).slowdown(0), 1.0);
    }

    #[test]
    fn fraction_marks_expected_count() {
        let plan = FaultPlan::with_fraction(10, 0.4, FaultKind::DataLoss { prob: 0.5 }, 0);
        assert_eq!(plan.affected_clients(), vec![0, 1, 2, 3]);
        assert_eq!(plan.kind(4), FaultKind::Reliable);
        let none = FaultPlan::with_fraction(10, 0.0, FaultKind::Dropout { period: 2 }, 0);
        assert!(none.affected_clients().is_empty());
    }

    #[test]
    fn fraction_boundaries_are_accepted() {
        // Satellite: both inclusive boundaries of [0, 1] must be valid.
        let none = FaultPlan::with_fraction(5, 0.0, FaultKind::DataLoss { prob: 0.5 }, 0);
        assert!(none.affected_clients().is_empty());
        let all = FaultPlan::with_fraction(5, 1.0, FaultKind::DataLoss { prob: 0.5 }, 0);
        assert_eq!(all.affected_clients().len(), 5);
    }

    #[test]
    #[should_panic(expected = "fraction must be in [0, 1]")]
    fn fraction_above_one_panics() {
        FaultPlan::with_fraction(5, 1.0001, FaultKind::Dropout { period: 2 }, 0);
    }

    #[test]
    #[should_panic(expected = "fraction must be in [0, 1]")]
    fn negative_fraction_panics() {
        FaultPlan::with_fraction(5, -0.0001, FaultKind::Dropout { period: 2 }, 0);
    }

    #[test]
    fn crash_window_blocks_delivery_then_recovers() {
        let kind = FaultKind::Crash {
            at_round: 3,
            down_for: 2,
        };
        let mut plan = FaultPlan::new(vec![kind, FaultKind::Reliable], 0);
        let delivered: Vec<bool> = (0..8).map(|r| plan.update_delivered(0, r)).collect();
        assert_eq!(
            delivered,
            vec![true, true, true, false, false, true, true, true]
        );
        assert!(plan.crashed(0, 3) && plan.crashed(0, 4));
        assert!(!plan.crashed(0, 2) && !plan.crashed(0, 5));
        assert!(plan.recovers_at(0, 5));
        assert!(!plan.recovers_at(0, 4) && !plan.recovers_at(0, 6));
        assert!(!plan.crashed(1, 3) && !plan.recovers_at(1, 5));
    }

    #[test]
    fn corruption_rate_matches_probability_and_delivers() {
        let mut plan = FaultPlan::new(vec![FaultKind::Corruption { prob: 0.3 }], 5);
        assert!((0..10).all(|r| plan.update_delivered(0, r)));
        let corrupted = (0..4000)
            .filter(|_| plan.corrupts_update(0).is_some())
            .count();
        let rate = corrupted as f64 / 4000.0;
        assert!((rate - 0.3).abs() < 0.03, "corruption rate {rate}");
    }

    #[test]
    fn corruption_clients_do_not_perturb_other_rng_streams() {
        // A DataLoss client's delivery sequence must be identical whether or
        // not a Corruption client shares the plan and gets queried.
        let run = |with_corruption: bool| {
            let kinds = if with_corruption {
                vec![
                    FaultKind::DataLoss { prob: 0.4 },
                    FaultKind::Corruption { prob: 0.5 },
                ]
            } else {
                vec![FaultKind::DataLoss { prob: 0.4 }, FaultKind::Reliable]
            };
            let mut plan = FaultPlan::new(kinds, 13);
            (0..200)
                .map(|r| plan.update_delivered(0, r))
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn corrupt_update_injects_nonfinite_or_blowup() {
        let mut delta = vec![0.01f32; 500];
        corrupt_update(&mut delta, 7);
        let bad = delta
            .iter()
            .filter(|v| !v.is_finite() || v.abs() > 1e20)
            .count();
        assert!(bad >= 3, "only {bad} corrupted coordinates");
        // Deterministic per seed.
        let mut again = vec![0.01f32; 500];
        corrupt_update(&mut again, 7);
        let same = delta
            .iter()
            .zip(&again)
            .all(|(a, b)| (a.is_nan() && b.is_nan()) || a == b);
        assert!(same, "corruption not deterministic");
        // Empty vectors are a no-op.
        corrupt_update(&mut [], 7);
    }

    #[test]
    fn corrupt_payload_matches_legacy_corruption_for_dense_and_sparse() {
        use adafl_compression::top_k;
        let eq = |a: &[f32], b: &[f32]| {
            a.iter()
                .zip(b)
                .all(|(x, y)| (x.is_nan() && y.is_nan()) || x == y)
        };
        let base: Vec<f32> = (0..500).map(|i| ((i as f32) * 0.013).sin()).collect();

        let mut payload = UpdatePayload::dense(base.clone());
        corrupt_payload(&mut payload, 7).expect("dense frames always re-parse");
        let mut legacy = base.clone();
        corrupt_update(&mut legacy, 7);
        assert!(eq(&payload.into_dense(), &legacy), "dense drifted");

        let sparse = top_k(&base, 50);
        let mut payload = UpdatePayload::Sparse(sparse.clone());
        corrupt_payload(&mut payload, 9).expect("sparse frames always re-parse");
        let mut legacy = sparse;
        corrupt_update(legacy.values_mut(), 9);
        let UpdatePayload::Sparse(got) = payload else {
            unreachable!("form preserved")
        };
        assert_eq!(got.indices(), legacy.indices());
        assert!(eq(got.values(), legacy.values()), "sparse drifted");
    }

    #[test]
    fn corrupt_payload_on_packed_forms_decodes_or_rejects() {
        use adafl_compression::{QsgdQuantizer, TernGrad};
        let g: Vec<f32> = (0..256).map(|i| ((i as f32) * 0.1).cos()).collect();
        let mut rejects = 0usize;
        let mut survivals = 0usize;
        for seed in 0..200u64 {
            for mut p in [
                UpdatePayload::quantized(QsgdQuantizer::new(8, 1).quantize(&g)),
                UpdatePayload::ternary(TernGrad::new(1).ternarize(&g)),
            ] {
                let form = p.form();
                let charged = p.encoded_len();
                match corrupt_payload(&mut p, seed) {
                    Ok(()) => {
                        survivals += 1;
                        // Byte overwrites preserve the frame length, so the
                        // ledger charge is stable across corruption.
                        assert_eq!(p.encoded_len(), charged);
                        assert_eq!(p.form(), form);
                    }
                    Err(_) => rejects += 1,
                }
            }
        }
        assert!(rejects > 0, "no header hit rejected in 400 trials");
        assert!(survivals > 0, "no body-only corruption survived");
    }

    #[test]
    #[should_panic(expected = "outage must last")]
    fn zero_length_crash_panics() {
        FaultPlan::new(
            vec![FaultKind::Crash {
                at_round: 0,
                down_for: 0,
            }],
            0,
        );
    }

    #[test]
    #[should_panic(expected = "corruption probability")]
    fn invalid_corruption_prob_panics() {
        FaultPlan::new(vec![FaultKind::Corruption { prob: 1.5 }], 0);
    }

    #[test]
    #[should_panic(expected = "period")]
    fn invalid_period_panics() {
        FaultPlan::new(vec![FaultKind::Dropout { period: 1 }], 0);
    }

    #[test]
    #[should_panic(expected = "factor")]
    fn invalid_staleness_panics() {
        FaultPlan::new(vec![FaultKind::Stale { factor: 1.0 }], 0);
    }

    // --- Byzantine attack kinds ---

    #[test]
    fn fault_kind_names_round_trip() {
        use std::str::FromStr;
        let kinds = [
            FaultKind::Reliable,
            FaultKind::Dropout { period: 2 },
            FaultKind::DataLoss { prob: 0.5 },
            FaultKind::Stale { factor: 3.0 },
            FaultKind::Crash {
                at_round: 2,
                down_for: 2,
            },
            FaultKind::Corruption { prob: 0.5 },
            FaultKind::SignFlip,
            FaultKind::Boost { factor: 10.0 },
            FaultKind::LittleIsEnough { epsilon: 0.3 },
        ];
        for k in kinds {
            // FromStr fills in the documented default parameters, which are
            // exactly the ones above — a full value round-trip.
            assert_eq!(FaultKind::from_str(k.as_str()).unwrap(), k);
            assert_eq!(format!("{k}"), k.as_str());
        }
        assert_eq!(
            FaultKind::from_str("LIE").unwrap(),
            FaultKind::LittleIsEnough { epsilon: 0.3 }
        );
        assert!(FaultKind::from_str("gaslight").is_err());

        // `name[:param[:param]]`: spelled parameters replace the defaults.
        for (spec, parsed) in [
            ("boost:-10", "Boost { factor: -10.0 }"),
            ("little-is-enough:0.3", "LittleIsEnough { epsilon: 0.3 }"),
            ("lie:1.5", "LittleIsEnough { epsilon: 1.5 }"),
            ("Stale:5", "Stale { factor: 5.0 }"),
            ("crash:4", "Crash { at_round: 4, down_for: 2 }"),
            ("crash:4:1", "Crash { at_round: 4, down_for: 1 }"),
        ] {
            assert_eq!(format!("{:?}", FaultKind::from_str(spec).unwrap()), parsed);
        }
        for (spec, complaint) in [
            ("boost:ten", "bad factor \"ten\""),
            ("sign-flip:2", "stray parameter \"2\""),
            ("crash:4:1:9", "stray parameter \"9\""),
            ("boost:1", "boost factor must be finite and ≠ 1"),
            ("dropout:1", "dropout period must be ≥ 2"),
            ("dataloss:1.5", "loss probability must be in [0,1]"),
            ("lie:0", "epsilon must be finite and > 0"),
        ] {
            let error = FaultKind::from_str(spec).expect_err(spec);
            assert!(error.contains(complaint), "{spec}: {error}");
        }
    }

    #[test]
    fn attack_clients_deliver_every_round_and_report_their_kind() {
        let mut plan = FaultPlan::new(
            vec![
                FaultKind::SignFlip,
                FaultKind::Boost { factor: 10.0 },
                FaultKind::LittleIsEnough { epsilon: 0.3 },
                FaultKind::Reliable,
            ],
            7,
        );
        for round in 0..5 {
            for c in 0..4 {
                assert!(plan.update_delivered(c, round));
            }
        }
        assert_eq!(plan.attacks_update(0), Some(FaultKind::SignFlip));
        assert_eq!(
            plan.attacks_update(1),
            Some(FaultKind::Boost { factor: 10.0 })
        );
        assert!(plan.attacks_update(3).is_none());
        assert_eq!(plan.affected_clients(), vec![0, 1, 2]);
    }

    #[test]
    fn attack_clients_do_not_perturb_other_rng_streams() {
        // Mirrors corruption_clients_do_not_perturb_other_rng_streams: a
        // DataLoss client's delivery sequence is identical whether or not
        // a Byzantine client shares the plan and attacks every round.
        let run = |with_attacker: bool| {
            let second = if with_attacker {
                FaultKind::LittleIsEnough { epsilon: 0.3 }
            } else {
                FaultKind::Reliable
            };
            let mut plan = FaultPlan::new(vec![FaultKind::DataLoss { prob: 0.4 }, second], 13);
            (0..200)
                .map(|r| {
                    if let Some(kind) = plan.attacks_update(1) {
                        let mut p = UpdatePayload::dense(vec![1.0, -2.0, 3.0]);
                        attack_payload(&mut p, kind, plan.collusion_seed(r));
                    }
                    plan.update_delivered(0, r)
                })
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn sign_flip_and_boost_transform_dense_and_sparse_values_exactly() {
        use adafl_compression::top_k;
        let base: Vec<f32> = (0..64).map(|i| ((i as f32) * 0.11).sin()).collect();

        let mut p = UpdatePayload::dense(base.clone());
        attack_payload(&mut p, FaultKind::SignFlip, 0);
        let flipped: Vec<f32> = base.iter().map(|v| -v).collect();
        assert_eq!(p.into_dense(), flipped);

        let sparse = top_k(&base, 16);
        let mut p = UpdatePayload::Sparse(sparse.clone());
        attack_payload(&mut p, FaultKind::Boost { factor: 8.0 }, 0);
        let UpdatePayload::Sparse(got) = p else {
            unreachable!("form preserved")
        };
        assert_eq!(got.indices(), sparse.indices());
        let boosted: Vec<f32> = sparse.values().iter().map(|v| 8.0 * v).collect();
        assert_eq!(got.values(), boosted.as_slice());
    }

    /// The byte route `attack_payload` once took for dense and sparse
    /// frames: encode, overwrite every value slot with its attacked value,
    /// decode. The in-place rewrite must reproduce it bit for bit.
    fn attack_via_bytes(payload: &mut UpdatePayload, kind: FaultKind, collusion_seed: u64) {
        if let UpdatePayload::SubView { inner, .. } = payload {
            return attack_via_bytes(inner, kind, collusion_seed);
        }
        let attacked = |values: &[f32]| -> Vec<f32> {
            match kind {
                FaultKind::SignFlip => values.iter().map(|v| -v).collect(),
                FaultKind::Boost { factor } => values.iter().map(|v| factor as f32 * v).collect(),
                FaultKind::LittleIsEnough { epsilon } => {
                    let norm = values
                        .iter()
                        .map(|&v| f64::from(v) * f64::from(v))
                        .sum::<f64>()
                        .sqrt();
                    if values.is_empty() || norm == 0.0 {
                        return values.to_vec();
                    }
                    let mut rng = StdRng::seed_from_u64(collusion_seed ^ 0x11E);
                    let mut dir: Vec<f64> = (0..values.len())
                        .map(|_| rng.gen::<f64>() * 2.0 - 1.0)
                        .collect();
                    let mut dir_norm = dir.iter().map(|d| d * d).sum::<f64>().sqrt();
                    if dir_norm == 0.0 {
                        dir[0] = 1.0;
                        dir_norm = 1.0;
                    }
                    let scale = epsilon * norm / dir_norm;
                    dir.iter().map(|&d| (scale * d) as f32).collect()
                }
                _ => unreachable!("attack kinds only"),
            }
        };
        let mut bytes = payload.encode();
        let (first, stride, poisoned) = match payload {
            UpdatePayload::Dense(d) => (DENSE_HEADER_BYTES, 4, attacked(d.values())),
            UpdatePayload::Sparse(s) => (
                SPARSE_HEADER_BYTES + 4,
                SPARSE_PAIR_BYTES,
                attacked(s.values()),
            ),
            _ => unreachable!("dense and sparse frames only"),
        };
        for (i, v) in poisoned.iter().enumerate() {
            let at = first + stride * i;
            bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
        }
        *payload = UpdatePayload::decode(payload.form(), &bytes).expect("value slots only");
    }

    #[test]
    fn in_place_attack_matches_the_byte_route_bit_for_bit() {
        use adafl_compression::{SparseUpdate, ViewDescriptor};
        let specials = [
            0.0f32,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),
            -f32::MIN_POSITIVE / 2.0,
            f32::from_bits(0x7fc0_1234),
            f32::from_bits(0xffa0_0001),
        ];
        // Finite cohorts (every kind moves every value) and cohorts that
        // mix in each special value, all-zero ones (little-is-enough's
        // early return) included.
        let mut cohorts: Vec<Vec<f32>> = vec![
            (0..37).map(|i| ((i as f32) * 0.37).sin() * 1e-3).collect(),
            vec![0.0; 9],
            vec![-0.0, 0.0, f32::from_bits(1)],
            Vec::new(),
        ];
        for &x in &specials {
            cohorts.push(
                (0..13)
                    .map(|i| if i % 4 == 1 { x } else { i as f32 - 6.5 })
                    .collect(),
            );
        }
        let kinds = [
            FaultKind::SignFlip,
            FaultKind::Boost { factor: 8.0 },
            FaultKind::Boost { factor: -0.5 },
            FaultKind::LittleIsEnough { epsilon: 0.3 },
        ];
        for values in &cohorts {
            let n = values.len();
            let indices: Vec<u32> = (0..n as u32).map(|i| 3 * i + 1).collect();
            let sparse = SparseUpdate::new(indices, values.clone(), 3 * n + 2);
            let mut payloads = vec![
                UpdatePayload::dense(values.clone()),
                UpdatePayload::Sparse(sparse.clone()),
            ];
            if n > 0 {
                let view = ViewDescriptor::new(n + 5, vec![(2, n as u32)]);
                payloads.push(UpdatePayload::sub_view(
                    view,
                    UpdatePayload::dense(values.clone()),
                ));
                let whole = ViewDescriptor::new(3 * n + 2, vec![(0, 3 * n as u32 + 2)]);
                payloads.push(UpdatePayload::sub_view(
                    whole,
                    UpdatePayload::Sparse(sparse),
                ));
            }
            for payload in payloads {
                for kind in kinds {
                    let mut fast = payload.clone();
                    let mut oracle = payload.clone();
                    attack_payload(&mut fast, kind, 77);
                    attack_via_bytes(&mut oracle, kind, 77);
                    assert_eq!(fast.form(), oracle.form());
                    assert_eq!(fast.encode(), oracle.encode(), "{kind} on {values:?}");
                }
            }
        }
    }

    #[test]
    fn packed_form_attacks_rewrite_only_the_scale() {
        use adafl_compression::{QsgdQuantizer, TernGrad};
        let g: Vec<f32> = (0..128).map(|i| ((i as f32) * 0.07).cos()).collect();
        for mut p in [
            UpdatePayload::quantized(QsgdQuantizer::new(8, 1).quantize(&g)),
            UpdatePayload::ternary(TernGrad::new(1).ternarize(&g)),
        ] {
            let before = p.clone().into_dense();
            let charged = p.encoded_len();
            let form = p.form();
            attack_payload(&mut p, FaultKind::SignFlip, 0);
            // Negating the scale negates every decoded value exactly; the
            // frame re-parses and the ledger charge is unchanged.
            assert_eq!(p.encoded_len(), charged);
            assert_eq!(p.form(), form);
            let after = p.into_dense();
            let negated: Vec<f32> = before.iter().map(|v| -v).collect();
            assert_eq!(after, negated);
        }
    }

    #[test]
    fn little_is_enough_stays_inside_the_norm_envelope_and_colludes() {
        let norm = |v: &[f32]| {
            v.iter()
                .map(|&x| f64::from(x) * f64::from(x))
                .sum::<f64>()
                .sqrt()
        };
        let a: Vec<f32> = (0..256).map(|i| ((i as f32) * 0.05).sin()).collect();
        let b: Vec<f32> = (0..256).map(|i| ((i as f32) * 0.09).cos()).collect();
        let kind = FaultKind::LittleIsEnough { epsilon: 0.3 };
        let seed = 42u64;

        let mut pa = UpdatePayload::dense(a.clone());
        let mut pb = UpdatePayload::dense(b.clone());
        attack_payload(&mut pa, kind, seed);
        attack_payload(&mut pb, kind, seed);
        let da = pa.into_dense();
        let db = pb.into_dense();

        // Poisoned norm ≈ ε · honest norm — well inside any norm screen.
        assert!((norm(&da) / norm(&a) - 0.3).abs() < 1e-3);
        assert!((norm(&db) / norm(&b) - 0.3).abs() < 1e-3);
        // Colluders sharing a round seed send *parallel* updates: the
        // cosine of the two poisoned directions is 1.
        let dot: f64 = da
            .iter()
            .zip(&db)
            .map(|(&x, &y)| f64::from(x) * f64::from(y))
            .sum();
        let cos = dot / (norm(&da) * norm(&db));
        assert!(cos > 0.9999, "colluders disagree, cos = {cos}");
        // A different round seed changes the direction.
        let mut pc = UpdatePayload::dense(a.clone());
        attack_payload(&mut pc, kind, seed ^ 1);
        let dc = pc.into_dense();
        let dot: f64 = da
            .iter()
            .zip(&dc)
            .map(|(&x, &y)| f64::from(x) * f64::from(y))
            .sum();
        let cos = dot / (norm(&da) * norm(&dc));
        assert!(cos < 0.9, "rounds share a direction, cos = {cos}");
    }

    #[test]
    fn attack_payload_is_deterministic_per_seed() {
        let base: Vec<f32> = (0..100).map(|i| (i as f32) * 0.01 - 0.5).collect();
        let kind = FaultKind::LittleIsEnough { epsilon: 0.5 };
        let mut one = UpdatePayload::dense(base.clone());
        let mut two = UpdatePayload::dense(base);
        attack_payload(&mut one, kind, 99);
        attack_payload(&mut two, kind, 99);
        assert_eq!(one, two);
    }

    #[test]
    fn collusion_seed_varies_by_round_not_by_query() {
        let plan = FaultPlan::new(vec![FaultKind::SignFlip], 3);
        assert_eq!(plan.collusion_seed(4), plan.collusion_seed(4));
        assert_ne!(plan.collusion_seed(4), plan.collusion_seed(5));
        // Different plan seeds produce different collusion streams.
        let other = FaultPlan::new(vec![FaultKind::SignFlip], 4);
        assert_ne!(plan.collusion_seed(4), other.collusion_seed(4));
    }

    #[test]
    #[should_panic(expected = "not a Byzantine attack")]
    fn attack_payload_rejects_non_attack_kinds() {
        let mut p = UpdatePayload::dense(vec![1.0]);
        attack_payload(&mut p, FaultKind::Reliable, 0);
    }

    #[test]
    #[should_panic(expected = "boost factor")]
    fn identity_boost_panics() {
        FaultPlan::new(vec![FaultKind::Boost { factor: 1.0 }], 0);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn non_positive_epsilon_panics() {
        FaultPlan::new(vec![FaultKind::LittleIsEnough { epsilon: 0.0 }], 0);
    }
}
