//! Windowed recovery modes for the streaming engine.
//!
//! Cumulative recovery (the PR 4 default) answers "what happened since
//! the stream started"; a long-running aggregator usually wants "what is
//! happening *now*". Two windowed modes are available:
//!
//! * **Sliding** — the recovery state is the exact sum of the last `W`
//!   epoch deltas. Integer counts, so the windowed estimate is
//!   bit-identical to running the batch estimator over those epochs.
//! * **Decay** — exponentially-decaying counts `S_t = λ·S_{t-1} + Δ_t`
//!   (for truth, genuine, and malicious state alike). The debias map
//!   `f̃(v) = (c − n·q)/((p−q)·n)` is linear in `(c, n)`, so running it
//!   on decayed float counts is the exact decayed mixture of the
//!   per-epoch estimates.
//!
//! Either window reaches the recovery snapshot as a [`WindowAggregate`],
//! the float view the offline pipeline debiases too; the decay window
//! keeps its state in that form.
//!
//! Window state only affects what the recovery snapshot *reads*; shard
//! delta computation is untouched, so windowed runs remain bit-identical
//! across checkpoint/resume (decayed `f64` state round-trips bit-for-bit
//! through the shortest-roundtrip JSON layer).

use std::collections::VecDeque;

use ldp_common::{Domain, LdpError, Result};

use super::{ShardDelta, WindowAggregate};

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

/// The windowed counterpart of the engine's cumulative accumulators.
#[derive(Debug, Clone, PartialEq)]
pub enum WindowState {
    /// Cumulative mode keeps no extra state.
    Cumulative,
    /// The last (up to) `W` epochs, oldest first.
    Sliding {
        /// Retained epoch deltas (each the merge of the epoch's shard
        /// deltas), oldest first; capped at the window span.
        history: VecDeque<ShardDelta>,
    },
    /// Exponentially-decayed float state `S_t = λ·S_{t-1} + Δ_t`, held
    /// as the float view the recovery snapshot debiases.
    Decay(WindowAggregate),
}

impl WindowState {
    /// Fresh (nothing-ingested) state for `mode` over `domain`.
    pub fn new(mode: WindowMode, domain: Domain) -> Self {
        match mode {
            WindowMode::Cumulative => WindowState::Cumulative,
            WindowMode::Sliding(_) => WindowState::Sliding {
                history: VecDeque::new(),
            },
            WindowMode::Decay(_) => {
                WindowState::Decay(WindowAggregate::from_counts(&ShardDelta::empty(domain)))
            }
        }
    }

    /// Folds one finished epoch into the window.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] when the state variant disagrees
    /// with `mode` (a corrupt checkpoint would be the only way there).
    pub fn absorb(&mut self, mode: WindowMode, epoch: ShardDelta) -> Result<()> {
        match (self, mode) {
            (WindowState::Cumulative, WindowMode::Cumulative) => Ok(()),
            (WindowState::Sliding { history }, WindowMode::Sliding(span)) => {
                history.push_back(epoch);
                while history.len() > span {
                    history.pop_front();
                }
                Ok(())
            }
            (WindowState::Decay(view), WindowMode::Decay(lambda)) => {
                let decay_into = |state: &mut [f64], fresh: &[u64]| {
                    for (slot, &c) in state.iter_mut().zip(fresh) {
                        *slot = lambda * *slot + c as f64;
                    }
                };
                decay_into(&mut view.truth, &epoch.population);
                decay_into(&mut view.genuine_counts, &epoch.genuine_counts);
                decay_into(&mut view.malicious_counts, &epoch.malicious_counts);
                view.genuine_reports = lambda * view.genuine_reports + epoch.genuine_users as f64;
                view.malicious_reports =
                    lambda * view.malicious_reports + epoch.malicious_users as f64;
                Ok(())
            }
            (state, mode) => Err(LdpError::invalid(format!(
                "window state {state:?} does not match window mode {mode:?}"
            ))),
        }
    }

    /// The windowed float aggregate the recovery snapshot reads, or
    /// `None` in cumulative mode (the engine's cumulative counts are the
    /// window there).
    pub fn aggregate(&self, domain: Domain) -> Option<WindowAggregate> {
        match self {
            WindowState::Cumulative => None,
            WindowState::Sliding { history } => {
                let mut window = ShardDelta::empty(domain);
                for epoch in history {
                    window.merge(epoch);
                }
                Some(WindowAggregate::from_counts(&window))
            }
            WindowState::Decay(view) => Some(view.clone()),
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

    fn fake_epoch(fill: u64, reports: usize) -> ShardDelta {
        ShardDelta {
            population: vec![fill; 3],
            genuine_counts: vec![fill + 1; 3],
            genuine_users: reports,
            malicious_counts: vec![fill / 2; 3],
            malicious_users: reports / 4,
        }
    }

    fn domain() -> Domain {
        Domain::new(3).unwrap()
    }

    #[test]
    fn sliding_window_retains_exactly_the_span() {
        let mode = WindowMode::Sliding(2);
        let mut state = WindowState::new(mode, domain());
        for fill in 1..=4u64 {
            state
                .absorb(mode, fake_epoch(fill, fill as usize * 10))
                .unwrap();
        }
        let agg = state.aggregate(domain()).unwrap();
        // Epochs 3 and 4 survive: truth 3+4, reports 30+40.
        assert_eq!(agg.truth, vec![7.0; 3]);
        assert_eq!(agg.genuine_reports, 70.0);
    }

    #[test]
    fn decay_state_is_the_exact_geometric_mixture() {
        let mode = WindowMode::Decay(0.5);
        let mut state = WindowState::new(mode, domain());
        state.absorb(mode, fake_epoch(8, 80)).unwrap();
        state.absorb(mode, fake_epoch(2, 20)).unwrap();
        let agg = state.aggregate(domain()).unwrap();
        // 0.5·8 + 2 = 6 exactly (powers of two: no rounding).
        assert_eq!(agg.truth, vec![6.0; 3]);
        assert_eq!(agg.genuine_reports, 60.0);
    }

    #[test]
    fn mismatched_state_and_mode_is_rejected() {
        let mut state = WindowState::new(WindowMode::Cumulative, domain());
        assert!(state
            .absorb(WindowMode::Sliding(2), fake_epoch(1, 10))
            .is_err());
        assert!(state.aggregate(domain()).is_none());
    }
}
