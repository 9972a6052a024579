//! Admission control: accept, degrade, or reject a connecting session.
//!
//! The server estimates the load a new session would add (its share of
//! uplink/downlink bandwidth and of the VIO worker pool — see the
//! engine coordinator's `offered_load`) and compares the projected
//! total against two thresholds:
//!
//! * projected ≤ `degrade_threshold` → **accept** at full rates;
//! * projected at *half* rates ≤ `reject_threshold` → **degrade**
//!   (camera and render-stream rates halved — the session gets a worse
//!   but bounded experience instead of dragging everyone down);
//! * otherwise → **reject** (the session never attaches).
//!
//! Every decision is logged with its inputs so a run's admission story
//! is auditable in the report.

use illixr_core::Time;

/// Outcome of one admission request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Attach at full rates.
    Accept,
    /// Attach with camera/render rates halved.
    Degrade,
    /// Do not attach.
    Reject,
}

impl AdmissionDecision {
    /// Stable lowercase label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Self::Accept => "accept",
            Self::Degrade => "degrade",
            Self::Reject => "reject",
        }
    }
}

/// Admission thresholds, in units of total estimated load (1.0 = some
/// resource fully subscribed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Above this projected load, new sessions are degraded.
    pub degrade_threshold: f64,
    /// Above this projected load (even at degraded rates), new sessions
    /// are rejected.
    pub reject_threshold: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self { degrade_threshold: 0.7, reject_threshold: 0.95 }
    }
}

/// One logged admission decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionRecord {
    /// When the session asked to connect.
    pub time: Time,
    /// The session asking.
    pub session: u32,
    /// Estimated load before this session.
    pub load_before: f64,
    /// Load the session would add at full rates.
    pub offered: f64,
    /// The decision.
    pub decision: AdmissionDecision,
}

/// The admission policy plus its decision log.
#[derive(Debug)]
pub struct AdmissionController {
    config: AdmissionConfig,
    log: Vec<AdmissionRecord>,
}

impl AdmissionController {
    /// Creates a controller with the given thresholds.
    pub fn new(config: AdmissionConfig) -> Self {
        Self { config, log: Vec::new() }
    }

    /// Decides whether `session`, offering `offered` load at full rates
    /// on top of `load_before`, may attach. Logs the decision.
    pub fn admit(
        &mut self,
        time: Time,
        session: u32,
        load_before: f64,
        offered: f64,
    ) -> AdmissionDecision {
        let decision = if load_before + offered <= self.config.degrade_threshold {
            AdmissionDecision::Accept
        } else if load_before + offered * 0.5 <= self.config.reject_threshold {
            AdmissionDecision::Degrade
        } else {
            AdmissionDecision::Reject
        };
        self.log.push(AdmissionRecord { time, session, load_before, offered, decision });
        decision
    }

    /// All decisions taken so far, in order.
    pub(crate) fn records(&self) -> &[AdmissionRecord] {
        &self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> AdmissionController {
        AdmissionController::new(AdmissionConfig { degrade_threshold: 0.6, reject_threshold: 0.9 })
    }

    #[test]
    fn empty_server_accepts() {
        let mut c = controller();
        assert_eq!(c.admit(Time::ZERO, 0, 0.0, 0.1), AdmissionDecision::Accept);
    }

    #[test]
    fn exactly_at_capacity_still_accepts() {
        let mut c = controller();
        // Projected load lands exactly on the threshold: ≤ accepts.
        assert_eq!(c.admit(Time::ZERO, 0, 0.5, 0.1), AdmissionDecision::Accept);
    }

    #[test]
    fn over_capacity_degrades_when_half_rate_fits() {
        let mut c = controller();
        // 0.55 + 0.1 > 0.6 but 0.55 + 0.05 ≤ 0.9.
        assert_eq!(c.admit(Time::ZERO, 1, 0.55, 0.1), AdmissionDecision::Degrade);
    }

    #[test]
    fn saturated_server_rejects() {
        let mut c = controller();
        assert_eq!(c.admit(Time::ZERO, 2, 0.88, 0.1), AdmissionDecision::Reject);
    }

    #[test]
    fn every_decision_is_logged_with_inputs() {
        let mut c = controller();
        c.admit(Time::from_millis(5), 0, 0.0, 0.2);
        c.admit(Time::from_millis(9), 1, 0.2, 0.5);
        let log = c.records();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].session, 0);
        assert_eq!(log[1].time, Time::from_millis(9));
        assert_eq!(log[1].load_before, 0.2);
        assert_eq!(log[1].decision, AdmissionDecision::Degrade);
    }
}
