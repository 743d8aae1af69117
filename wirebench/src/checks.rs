//! Answer correctness checks, applied to every answer frame the
//! generator receives.
//!
//! A frame passes when it answers exactly the roads its query named, in
//! canonical order, with one finite positive estimate each, and when it
//! agrees bit-for-bit with every earlier answer cut from the same round
//! (same slot and cache generation).

use rtse_edge::AnswerFrame;
use std::collections::HashMap;
use std::fmt;

/// Why an answer frame failed its checks.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckError {
    /// The frame answers another slot than the query named.
    Slot { sent: u16, got: u16 },
    /// The frame's road list is not the query's canonical road list.
    Roads { sent: usize, got: usize },
    /// The frame carries a different number of estimates than roads.
    Length { roads: usize, speeds: usize },
    /// An estimate is a NaN bit pattern.
    NanBits { road: u32, bits: u64 },
    /// An estimate is infinite, zero or negative.
    NotPositive { road: u32, value: f64 },
    /// Two answers of one round disagree on a shared road.
    Disagree { slot: u16, generation: u64, road: u32, first: u64, later: u64 },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Slot { sent, got } => write!(f, "answer for slot {got}, query named {sent}"),
            Self::Roads { sent, got } => {
                write!(f, "answer names {got} roads that differ from the query's {sent}")
            }
            Self::Length { roads, speeds } => write!(f, "{roads} roads but {speeds} estimates"),
            Self::NanBits { road, bits } => write!(f, "road {road}: NaN bits {bits:#018x}"),
            Self::NotPositive { road, value } => write!(f, "road {road}: estimate {value}"),
            Self::Disagree { slot, generation, road, first, later } => write!(
                f,
                "slot {slot} generation {generation} road {road}: bits {first:#018x} then \
                 {later:#018x}"
            ),
        }
    }
}

/// Estimates seen so far, per round, as raw bits.
#[derive(Debug, Default)]
pub struct RoundLedger {
    rounds: HashMap<(u16, u64), HashMap<u32, u64>>,
}

impl RoundLedger {
    /// Checks `answer` against the query it answers (`slot`, canonical
    /// `roads`) and against every earlier answer of the same round, then
    /// records its estimates.
    pub fn check(
        &mut self,
        slot: u16,
        roads: &[u32],
        answer: &AnswerFrame,
    ) -> Result<(), CheckError> {
        if answer.slot != slot {
            return Err(CheckError::Slot { sent: slot, got: answer.slot });
        }
        if answer.speeds.len() != answer.roads.len() {
            return Err(CheckError::Length {
                roads: answer.roads.len(),
                speeds: answer.speeds.len(),
            });
        }
        if answer.roads != roads {
            return Err(CheckError::Roads { sent: roads.len(), got: answer.roads.len() });
        }
        for (&road, &value) in answer.roads.iter().zip(&answer.speeds) {
            if value.is_nan() {
                return Err(CheckError::NanBits { road, bits: value.to_bits() });
            }
            if !(value.is_finite() && value > 0.0) {
                return Err(CheckError::NotPositive { road, value });
            }
        }
        let seen = self.rounds.entry((answer.slot, answer.generation)).or_default();
        for (&road, &value) in answer.roads.iter().zip(&answer.speeds) {
            let bits = value.to_bits();
            let first = *seen.entry(road).or_insert(bits);
            if first != bits {
                return Err(CheckError::Disagree {
                    slot: answer.slot,
                    generation: answer.generation,
                    road,
                    first,
                    later: bits,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(generation: u64, roads: &[u32], speeds: &[f64]) -> AnswerFrame {
        AnswerFrame {
            request_id: 1,
            generation,
            age_us: 0,
            wait_us: 0,
            slot: 102,
            cache_hit: false,
            roads: roads.to_vec(),
            speeds: speeds.to_vec(),
        }
    }

    #[test]
    fn a_clean_answer_passes() {
        let mut ledger = RoundLedger::default();
        assert_eq!(ledger.check(102, &[3, 9], &answer(1, &[3, 9], &[41.5, 52.25])), Ok(()));
        // Another answer of the same round that agrees on the shared road.
        assert_eq!(ledger.check(102, &[9, 12], &answer(1, &[9, 12], &[52.25, 30.0])), Ok(()));
        // A later round may move the estimate.
        assert_eq!(ledger.check(102, &[3], &answer(2, &[3], &[44.0])), Ok(()));
    }

    #[test]
    fn wrong_length_is_rejected() {
        let mut ledger = RoundLedger::default();
        let short = answer(1, &[3, 9], &[41.5]);
        assert_eq!(
            ledger.check(102, &[3, 9], &short),
            Err(CheckError::Length { roads: 2, speeds: 1 })
        );
        let missing_road = answer(1, &[3], &[41.5]);
        assert_eq!(
            ledger.check(102, &[3, 9], &missing_road),
            Err(CheckError::Roads { sent: 2, got: 1 })
        );
    }

    #[test]
    fn nan_and_non_positive_estimates_are_rejected() {
        let mut ledger = RoundLedger::default();
        let quiet = f64::from_bits(0x7ff8_0000_0000_0001);
        assert_eq!(
            ledger.check(102, &[3, 9], &answer(1, &[3, 9], &[41.5, quiet])),
            Err(CheckError::NanBits { road: 9, bits: 0x7ff8_0000_0000_0001 })
        );
        assert_eq!(
            ledger.check(102, &[3], &answer(1, &[3], &[-1.0])),
            Err(CheckError::NotPositive { road: 3, value: -1.0 })
        );
        assert!(ledger.check(102, &[3], &answer(1, &[3], &[f64::INFINITY])).is_err());
    }

    #[test]
    fn same_generation_disagreement_is_rejected() {
        let mut ledger = RoundLedger::default();
        assert_eq!(ledger.check(102, &[3, 9], &answer(4, &[3, 9], &[41.5, 52.25])), Ok(()));
        let drifted = answer(4, &[9], &[f64::from_bits(52.25f64.to_bits() + 1)]);
        assert_eq!(
            ledger.check(102, &[9], &drifted),
            Err(CheckError::Disagree {
                slot: 102,
                generation: 4,
                road: 9,
                first: 52.25f64.to_bits(),
                later: 52.25f64.to_bits() + 1,
            })
        );
    }

    #[test]
    fn wrong_slot_is_rejected() {
        let mut ledger = RoundLedger::default();
        assert_eq!(
            ledger.check(7, &[3], &answer(1, &[3], &[40.0])),
            Err(CheckError::Slot { sent: 7, got: 102 })
        );
    }
}
