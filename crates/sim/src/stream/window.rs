//! Windowed recovery modes for the streaming engine.
//!
//! Cumulative recovery (the PR 4 default) answers "what happened since
//! the stream started"; a long-running aggregator usually wants "what is
//! happening *now*". Two windowed modes are available:
//!
//! * **Sliding** — the recovery state is the exact sum of the last `W`
//!   epoch aggregates. Integer counts, so the windowed estimate is
//!   bit-identical to running the batch estimator over those epochs.
//! * **Decay** — exponentially-decaying counts `S_t = λ·S_{t-1} + Δ_t`
//!   (for truth, genuine, and malicious state alike). The debias map
//!   `f̃(v) = (c − n·q)/((p−q)·n)` is linear in `(c, n)`, so running it
//!   on decayed float counts is the exact decayed mixture of the
//!   per-epoch estimates.
//!
//! Window state only affects what the recovery snapshot *reads*; shard
//! delta computation is untouched, so windowed runs remain bit-identical
//! across checkpoint/resume (decayed `f64` state round-trips bit-for-bit
//! through the shortest-roundtrip JSON layer).

use std::collections::VecDeque;

use ldp_common::{LdpError, Result};

use super::ShardDelta;

/// Which state the epoch-boundary recovery runs on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WindowMode {
    /// Everything since epoch 0 (the PR 4 behavior; the default).
    Cumulative,
    /// The exact sum of the last `W` epochs.
    Sliding(usize),
    /// Exponentially-decaying counts with per-epoch factor `λ ∈ (0,1)`.
    Decay(f64),
}

impl WindowMode {
    /// Parses the CLI/checkpoint surface form: `cumulative`,
    /// `sliding:<epochs>`, or `decay:<lambda>`.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] on unknown forms or out-of-range
    /// parameters.
    pub fn parse(text: &str) -> Result<Self> {
        let mode = match text.split_once(':') {
            None if text == "cumulative" => WindowMode::Cumulative,
            Some(("sliding", w)) => {
                let w: usize = w
                    .parse()
                    .map_err(|_| LdpError::invalid(format!("sliding window size: {w:?}")))?;
                WindowMode::Sliding(w)
            }
            Some(("decay", l)) => {
                let l: f64 = l
                    .parse()
                    .map_err(|_| LdpError::invalid(format!("decay factor: {l:?}")))?;
                WindowMode::Decay(l)
            }
            _ => {
                return Err(LdpError::invalid(format!(
                    "unknown window mode {text:?} (expected cumulative | sliding:<epochs> | decay:<lambda>)"
                )))
            }
        };
        mode.validate()?;
        Ok(mode)
    }

    /// The surface form [`WindowMode::parse`] accepts; `f64` renders in
    /// shortest-roundtrip decimal so parse(name()) is exact.
    pub fn name(&self) -> String {
        match self {
            WindowMode::Cumulative => "cumulative".to_string(),
            WindowMode::Sliding(w) => format!("sliding:{w}"),
            WindowMode::Decay(l) => format!("decay:{l}"),
        }
    }

    /// Validates the mode's parameter.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] for a zero-width sliding window or
    /// a decay factor outside `(0, 1)`.
    pub fn validate(&self) -> Result<()> {
        match *self {
            WindowMode::Cumulative => Ok(()),
            WindowMode::Sliding(w) if w >= 1 => Ok(()),
            WindowMode::Sliding(w) => Err(LdpError::invalid(format!(
                "sliding window must span ≥ 1 epoch, got {w}"
            ))),
            WindowMode::Decay(l) if l.is_finite() && l > 0.0 && l < 1.0 => Ok(()),
            WindowMode::Decay(l) => Err(LdpError::invalid(format!(
                "decay factor must lie in (0, 1), got {l}"
            ))),
        }
    }

    /// Whether this mode is the cumulative default (checkpoint/report
    /// JSON omits the field in that case, keeping PR 4 artifacts stable).
    pub fn is_cumulative(&self) -> bool {
        matches!(self, WindowMode::Cumulative)
    }
}

/// One epoch's merged (all-shard) aggregate — the unit the sliding
/// window retains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochAggregate {
    /// Merged genuine population histogram of the epoch.
    pub truth: Vec<u64>,
    /// Merged genuine support counts.
    pub genuine_counts: Vec<u64>,
    /// Genuine reports in the epoch.
    pub genuine_reports: usize,
    /// Merged malicious support counts.
    pub malicious_counts: Vec<u64>,
    /// Malicious reports in the epoch.
    pub malicious_reports: usize,
}

impl EpochAggregate {
    /// Sums a full epoch's shard deltas (order-independent: exact `u64`
    /// element-wise addition).
    pub fn from_deltas(domain_size: usize, deltas: &[&ShardDelta]) -> Self {
        let mut agg = EpochAggregate {
            truth: vec![0; domain_size],
            genuine_counts: vec![0; domain_size],
            genuine_reports: 0,
            malicious_counts: vec![0; domain_size],
            malicious_reports: 0,
        };
        for delta in deltas {
            for (slot, &c) in agg.truth.iter_mut().zip(&delta.population) {
                *slot += c;
            }
            for (slot, &c) in agg.genuine_counts.iter_mut().zip(&delta.genuine_counts) {
                *slot += c;
            }
            for (slot, &c) in agg.malicious_counts.iter_mut().zip(&delta.malicious_counts) {
                *slot += c;
            }
            agg.genuine_reports += delta.genuine_users;
            agg.malicious_reports += delta.malicious_users;
        }
        agg
    }
}

/// The windowed counterpart of the engine's cumulative accumulators.
#[derive(Debug, Clone, PartialEq)]
pub enum WindowState {
    /// Cumulative mode keeps no extra state.
    Cumulative,
    /// The last (up to) `W` epoch aggregates, oldest first.
    Sliding {
        /// Retained epochs, oldest first; capped at the window span.
        history: VecDeque<EpochAggregate>,
    },
    /// Exponentially-decayed float state `S_t = λ·S_{t-1} + Δ_t`.
    Decay {
        /// Decayed genuine population histogram.
        truth: Vec<f64>,
        /// Decayed genuine support counts.
        genuine_counts: Vec<f64>,
        /// Decayed genuine report mass.
        genuine_reports: f64,
        /// Decayed malicious support counts.
        malicious_counts: Vec<f64>,
        /// Decayed malicious report mass.
        malicious_reports: f64,
    },
}

impl WindowState {
    /// Fresh (nothing-ingested) state for `mode` over a `domain_size`
    /// item domain.
    pub fn new(mode: WindowMode, domain_size: usize) -> Self {
        match mode {
            WindowMode::Cumulative => WindowState::Cumulative,
            WindowMode::Sliding(_) => WindowState::Sliding {
                history: VecDeque::new(),
            },
            WindowMode::Decay(_) => WindowState::Decay {
                truth: vec![0.0; domain_size],
                genuine_counts: vec![0.0; domain_size],
                genuine_reports: 0.0,
                malicious_counts: vec![0.0; domain_size],
                malicious_reports: 0.0,
            },
        }
    }

    /// Folds one finished epoch into the window.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] when the state variant disagrees
    /// with `mode` (a corrupt checkpoint would be the only way there).
    pub fn absorb(&mut self, mode: WindowMode, epoch: EpochAggregate) -> Result<()> {
        match (self, mode) {
            (WindowState::Cumulative, WindowMode::Cumulative) => Ok(()),
            (WindowState::Sliding { history }, WindowMode::Sliding(span)) => {
                history.push_back(epoch);
                while history.len() > span {
                    history.pop_front();
                }
                Ok(())
            }
            (
                WindowState::Decay {
                    truth,
                    genuine_counts,
                    genuine_reports,
                    malicious_counts,
                    malicious_reports,
                },
                WindowMode::Decay(lambda),
            ) => {
                let decay_into = |state: &mut [f64], fresh: &[u64]| {
                    for (slot, &c) in state.iter_mut().zip(fresh) {
                        *slot = lambda * *slot + c as f64;
                    }
                };
                decay_into(truth, &epoch.truth);
                decay_into(genuine_counts, &epoch.genuine_counts);
                decay_into(malicious_counts, &epoch.malicious_counts);
                *genuine_reports = lambda * *genuine_reports + epoch.genuine_reports as f64;
                *malicious_reports = lambda * *malicious_reports + epoch.malicious_reports as f64;
                Ok(())
            }
            (state, mode) => Err(LdpError::invalid(format!(
                "window state {state:?} does not match window mode {mode:?}"
            ))),
        }
    }

    /// The windowed float aggregate the recovery snapshot reads, or
    /// `None` in cumulative mode (which keeps the exact integer path).
    pub fn aggregate(&self, domain_size: usize) -> Option<WindowAggregate> {
        match self {
            WindowState::Cumulative => None,
            WindowState::Sliding { history } => {
                let mut agg = WindowAggregate::zero(domain_size);
                for epoch in history {
                    for (slot, &c) in agg.truth.iter_mut().zip(&epoch.truth) {
                        *slot += c as f64;
                    }
                    for (slot, &c) in agg.genuine_counts.iter_mut().zip(&epoch.genuine_counts) {
                        *slot += c as f64;
                    }
                    for (slot, &c) in agg.malicious_counts.iter_mut().zip(&epoch.malicious_counts) {
                        *slot += c as f64;
                    }
                    agg.genuine_reports += epoch.genuine_reports as f64;
                    agg.malicious_reports += epoch.malicious_reports as f64;
                }
                Some(agg)
            }
            WindowState::Decay {
                truth,
                genuine_counts,
                genuine_reports,
                malicious_counts,
                malicious_reports,
            } => Some(WindowAggregate {
                truth: truth.clone(),
                genuine_counts: genuine_counts.clone(),
                genuine_reports: *genuine_reports,
                malicious_counts: malicious_counts.clone(),
                malicious_reports: *malicious_reports,
            }),
        }
    }
}

/// Float view of the windowed state a snapshot debiases.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowAggregate {
    /// Windowed genuine population histogram.
    pub truth: Vec<f64>,
    /// Windowed genuine support counts.
    pub genuine_counts: Vec<f64>,
    /// Windowed genuine report mass.
    pub genuine_reports: f64,
    /// Windowed malicious support counts.
    pub malicious_counts: Vec<f64>,
    /// Windowed malicious report mass.
    pub malicious_reports: f64,
}

impl WindowAggregate {
    fn zero(domain_size: usize) -> Self {
        WindowAggregate {
            truth: vec![0.0; domain_size],
            genuine_counts: vec![0.0; domain_size],
            genuine_reports: 0.0,
            malicious_counts: vec![0.0; domain_size],
            malicious_reports: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_name_roundtrip() {
        for text in ["cumulative", "sliding:4", "decay:0.875"] {
            let mode = WindowMode::parse(text).unwrap();
            assert_eq!(mode.name(), text);
            assert_eq!(WindowMode::parse(&mode.name()).unwrap(), mode);
        }
        for bad in [
            "",
            "window",
            "sliding",
            "sliding:0",
            "sliding:x",
            "decay:0",
            "decay:1",
            "decay:nan",
            "decay:-0.5",
            "cumulative:1",
        ] {
            assert!(WindowMode::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    fn fake_epoch(fill: u64, reports: usize) -> EpochAggregate {
        EpochAggregate {
            truth: vec![fill; 3],
            genuine_counts: vec![fill + 1; 3],
            genuine_reports: reports,
            malicious_counts: vec![fill / 2; 3],
            malicious_reports: reports / 4,
        }
    }

    #[test]
    fn sliding_window_retains_exactly_the_span() {
        let mode = WindowMode::Sliding(2);
        let mut state = WindowState::new(mode, 3);
        for fill in 1..=4u64 {
            state
                .absorb(mode, fake_epoch(fill, fill as usize * 10))
                .unwrap();
        }
        let agg = state.aggregate(3).unwrap();
        // Epochs 3 and 4 survive: truth 3+4, reports 30+40.
        assert_eq!(agg.truth, vec![7.0; 3]);
        assert_eq!(agg.genuine_reports, 70.0);
    }

    #[test]
    fn decay_state_is_the_exact_geometric_mixture() {
        let mode = WindowMode::Decay(0.5);
        let mut state = WindowState::new(mode, 3);
        state.absorb(mode, fake_epoch(8, 80)).unwrap();
        state.absorb(mode, fake_epoch(2, 20)).unwrap();
        let agg = state.aggregate(3).unwrap();
        // 0.5·8 + 2 = 6 exactly (powers of two: no rounding).
        assert_eq!(agg.truth, vec![6.0; 3]);
        assert_eq!(agg.genuine_reports, 60.0);
    }

    #[test]
    fn mismatched_state_and_mode_is_rejected() {
        let mut state = WindowState::new(WindowMode::Cumulative, 3);
        assert!(state
            .absorb(WindowMode::Sliding(2), fake_epoch(1, 10))
            .is_err());
        assert!(state.aggregate(3).is_none());
    }
}
