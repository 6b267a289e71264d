//! Link specifications and device-class presets.

use crate::SimTime;
use adafl_telemetry::names;

/// Which way a payload moves between a client and the server: toward the
/// server it uses each link's uplink bandwidth/latency, away from it the
/// downlink fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferDirection {
    /// Client → server.
    Uplink,
    /// Server → client.
    Downlink,
}

impl TransferDirection {
    /// The opposite direction — the one a transfer's ACK rides.
    pub fn reverse(self) -> Self {
        match self {
            TransferDirection::Uplink => TransferDirection::Downlink,
            TransferDirection::Downlink => TransferDirection::Uplink,
        }
    }

    /// Lowercase name, as telemetry events spell their `direction` field.
    pub fn name(self) -> &'static str {
        match self {
            TransferDirection::Uplink => "uplink",
            TransferDirection::Downlink => "downlink",
        }
    }

    /// Span kind and duration histogram a delivered transfer is recorded
    /// under.
    pub(crate) fn telemetry(self) -> (&'static str, &'static str) {
        match self {
            TransferDirection::Uplink => (names::SPAN_UPLINK, names::NET_UPLINK_SECONDS),
            TransferDirection::Downlink => (names::SPAN_DOWNLINK, names::NET_DOWNLINK_SECONDS),
        }
    }
}

/// Instantaneous network conditions of one client's connection.
///
/// Bandwidths are in bytes/second; latencies are one-way propagation delays
/// in seconds; `drop_prob` is the probability that a whole transfer is lost
/// (the coarse-grained failure model the FL experiments need — a lost
/// gradient update, not a lost packet).
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    uplink_bw: f64,
    downlink_bw: f64,
    uplink_latency: f64,
    downlink_latency: f64,
    drop_prob: f64,
}

impl LinkSpec {
    /// Creates a link spec.
    ///
    /// # Panics
    ///
    /// Panics when a bandwidth is not positive, a latency is negative, or
    /// `drop_prob` is outside `[0, 1]`.
    pub fn new(
        uplink_bw: f64,
        downlink_bw: f64,
        uplink_latency: f64,
        downlink_latency: f64,
        drop_prob: f64,
    ) -> Self {
        assert!(
            uplink_bw > 0.0 && downlink_bw > 0.0,
            "bandwidth must be positive"
        );
        assert!(
            uplink_latency >= 0.0 && downlink_latency >= 0.0,
            "latency must be non-negative"
        );
        LinkSpec {
            uplink_bw,
            downlink_bw,
            uplink_latency,
            downlink_latency,
            drop_prob: checked_drop_prob(drop_prob),
        }
    }

    /// Uplink bandwidth in bytes/second.
    pub fn uplink_bandwidth(&self) -> f64 {
        self.uplink_bw
    }

    /// Downlink bandwidth in bytes/second.
    pub fn downlink_bandwidth(&self) -> f64 {
        self.downlink_bw
    }

    /// One-way uplink latency in seconds.
    pub fn uplink_latency(&self) -> f64 {
        self.uplink_latency
    }

    /// One-way downlink latency in seconds.
    pub fn downlink_latency(&self) -> f64 {
        self.downlink_latency
    }

    /// Probability that a transfer over this link is lost entirely.
    pub fn drop_prob(&self) -> f64 {
        self.drop_prob
    }

    /// Bandwidth (bytes/second) and one-way latency (seconds) of the side
    /// of the link a transfer in `direction` uses.
    pub(crate) fn side(&self, direction: TransferDirection) -> (f64, f64) {
        match direction {
            TransferDirection::Uplink => (self.uplink_bw, self.uplink_latency),
            TransferDirection::Downlink => (self.downlink_bw, self.downlink_latency),
        }
    }

    /// Time to move `bytes` in `direction`: latency + serialisation.
    pub fn transfer_time(&self, bytes: usize, direction: TransferDirection) -> SimTime {
        let (bandwidth, latency) = self.side(direction);
        SimTime::from_seconds(latency + bytes as f64 / bandwidth)
    }

    /// Time to push `bytes` up to the server.
    pub fn uplink_time(&self, bytes: usize) -> SimTime {
        self.transfer_time(bytes, TransferDirection::Uplink)
    }

    /// Time to receive `bytes` from the server.
    pub fn downlink_time(&self, bytes: usize) -> SimTime {
        self.transfer_time(bytes, TransferDirection::Downlink)
    }

    /// Returns a copy with bandwidths scaled by `factor` (used by traces to
    /// model congestion).
    ///
    /// # Panics
    ///
    /// Panics when `factor` is not positive.
    pub fn with_bandwidth_scaled(&self, factor: f64) -> LinkSpec {
        assert!(factor > 0.0, "scale factor must be positive");
        LinkSpec {
            uplink_bw: self.uplink_bw * factor,
            downlink_bw: self.downlink_bw * factor,
            ..*self
        }
    }

    /// Returns a copy with the given drop probability.
    ///
    /// # Panics
    ///
    /// Panics when `drop_prob` is outside `[0, 1]`.
    pub fn with_drop_prob(&self, drop_prob: f64) -> LinkSpec {
        LinkSpec {
            drop_prob: checked_drop_prob(drop_prob),
            ..*self
        }
    }
}

/// The one place a drop probability is range-checked, so every
/// constructor panics with the same message.
///
/// # Panics
///
/// Panics when `drop_prob` is outside `[0, 1]`.
fn checked_drop_prob(drop_prob: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&drop_prob),
        "drop probability must be in [0, 1]"
    );
    drop_prob
}

/// Device-class presets for embedded federated deployments.
///
/// Bandwidth/latency values follow the rough orders of magnitude of the
/// deployments the paper motivates (home broadband, constrained IoT uplinks,
/// congested cellular).
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum LinkProfile {
    /// Residential broadband: 2 MB/s up, 10 MB/s down, 10 ms latency.
    Broadband,
    /// Constrained embedded uplink: 50 KB/s up, 200 KB/s down, 50 ms latency.
    Constrained,
    /// Congested cellular: 100 KB/s up, 500 KB/s down, 100 ms latency, 5% loss.
    Cellular,
    /// Lossy long-range link: 20 KB/s up, 50 KB/s down, 200 ms latency, 15% loss.
    Lossy,
}

impl LinkProfile {
    /// Materialises the preset as a [`LinkSpec`].
    pub fn spec(&self) -> LinkSpec {
        match self {
            LinkProfile::Broadband => LinkSpec::new(2e6, 10e6, 0.01, 0.01, 0.0),
            LinkProfile::Constrained => LinkSpec::new(50e3, 200e3, 0.05, 0.05, 0.01),
            LinkProfile::Cellular => LinkSpec::new(100e3, 500e3, 0.1, 0.1, 0.05),
            LinkProfile::Lossy => LinkSpec::new(20e3, 50e3, 0.2, 0.2, 0.15),
        }
    }

    /// The profile's canonical lowercase name, round-tripping through
    /// [`FromStr`](std::str::FromStr) — the spelling JSON experiment
    /// configs use.
    pub fn as_str(&self) -> &'static str {
        match self {
            LinkProfile::Broadband => "broadband",
            LinkProfile::Constrained => "constrained",
            LinkProfile::Cellular => "cellular",
            LinkProfile::Lossy => "lossy",
        }
    }
}

impl std::str::FromStr for LinkProfile {
    type Err = String;

    /// Parses a canonical profile name (case-insensitive).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "broadband" => Ok(LinkProfile::Broadband),
            "constrained" => Ok(LinkProfile::Constrained),
            "cellular" => Ok(LinkProfile::Cellular),
            "lossy" => Ok(LinkProfile::Lossy),
            other => Err(format!(
                "unknown link profile {other:?}; expected one of \
                 broadband, constrained, cellular, lossy"
            )),
        }
    }
}

impl std::fmt::Display for LinkProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_is_latency_plus_serialisation() {
        let link = LinkSpec::new(1000.0, 2000.0, 0.5, 0.25, 0.0);
        assert!((link.uplink_time(1000).seconds() - 1.5).abs() < 1e-12);
        assert!((link.downlink_time(1000).seconds() - 0.75).abs() < 1e-12);
        assert!((link.uplink_time(0).seconds() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn slower_uplink_takes_longer() {
        let fast = LinkProfile::Broadband.spec();
        let slow = LinkProfile::Constrained.spec();
        let payload = 1_640_000; // the paper's 1.64 MB dense gradient
        assert!(slow.uplink_time(payload) > fast.uplink_time(payload));
    }

    #[test]
    fn bandwidth_scaling() {
        let link = LinkSpec::new(1000.0, 1000.0, 0.0, 0.0, 0.0);
        let congested = link.with_bandwidth_scaled(0.5);
        assert_eq!(congested.uplink_bandwidth(), 500.0);
        assert!((congested.uplink_time(1000).seconds() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn drop_prob_override() {
        let link = LinkProfile::Broadband.spec().with_drop_prob(0.5);
        assert_eq!(link.drop_prob(), 0.5);
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_panics() {
        LinkSpec::new(0.0, 1.0, 0.0, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn invalid_drop_prob_panics() {
        LinkSpec::new(1.0, 1.0, 0.0, 0.0, 1.5);
    }

    #[test]
    fn profile_names_round_trip() {
        for profile in [
            LinkProfile::Broadband,
            LinkProfile::Constrained,
            LinkProfile::Cellular,
            LinkProfile::Lossy,
        ] {
            let name = profile.as_str();
            assert_eq!(name.parse::<LinkProfile>(), Ok(profile));
            assert_eq!(profile.to_string(), name);
        }
        // Case-insensitive on the way in, canonical on the way out.
        assert_eq!("Cellular".parse::<LinkProfile>(), Ok(LinkProfile::Cellular));
        assert!("dial-up".parse::<LinkProfile>().is_err());
    }

    #[test]
    #[should_panic(expected = "drop probability must be in [0, 1]")]
    fn with_drop_prob_shares_the_constructor_check() {
        let _ = LinkProfile::Broadband.spec().with_drop_prob(-0.1);
    }

    #[test]
    fn profiles_are_ordered_by_quality() {
        let payload = 100_000;
        let t = |p: LinkProfile| p.spec().uplink_time(payload).seconds();
        assert!(t(LinkProfile::Broadband) < t(LinkProfile::Cellular));
        assert!(t(LinkProfile::Cellular) < t(LinkProfile::Constrained));
        assert!(t(LinkProfile::Constrained) < t(LinkProfile::Lossy));
    }
}
