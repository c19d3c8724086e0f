//! The day windows `chat_turns` and `serve_fleet` filter on.
//!
//! Every other op uses one of a few *hot* windows, which stay resident in the
//! shared cache; the rest walk the *fresh* windows — `(start, width)` pairs —
//! in a seeded order that does not repeat one until all have been used, so a
//! fresh window is always a cache miss however long the run.

use crate::fixtures::{Rng, DAYS};

const HOT_WINDOWS: usize = 8;
const HOT_WIDTH: i64 = 30;
/// Fresh windows: starts `0..FRESH_STARTS`, widths `31..31 + FRESH_WIDTHS`.
const FRESH_STARTS: u64 = 305;
const FRESH_WIDTHS: u64 = 30;
const FRESH: u64 = FRESH_STARTS * FRESH_WIDTHS;
/// Primes that do not divide `FRESH` = 2 * 3 * 5^2 * 61, so `k * step mod
/// FRESH` visits every fresh window once per cycle.
const STEPS: [u64; 8] = [1009, 2003, 3001, 4001, 5003, 6007, 7001, 8009];

#[derive(Debug, Clone)]
pub struct Windows {
    hot: Vec<i64>,
    step: u64,
    next_fresh: u64,
}

impl Windows {
    pub fn new(rng: &mut Rng) -> Windows {
        let mut hot: Vec<i64> = Vec::new();
        while hot.len() < HOT_WINDOWS {
            let from = rng.below((DAYS - HOT_WIDTH) as u64) as i64;
            if !hot.contains(&from) {
                hot.push(from);
            }
        }
        Windows {
            hot,
            step: STEPS[rng.below(STEPS.len() as u64) as usize],
            next_fresh: rng.below(FRESH),
        }
    }

    /// `(from, to)` of one of the hot windows.
    pub fn hot(&self, rng: &mut Rng) -> (i64, i64) {
        let from = self.hot[rng.below(HOT_WINDOWS as u64) as usize];
        (from, from + HOT_WIDTH)
    }

    /// `(from, to)` of the next fresh window.
    pub fn fresh(&mut self) -> (i64, i64) {
        let slot = self.next_fresh * self.step % FRESH;
        self.next_fresh += 1;
        let from = (slot % FRESH_STARTS) as i64;
        (from, from + 31 + (slot / FRESH_STARTS) as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_windows_do_not_repeat_within_a_cycle_and_stay_in_range() {
        let mut rng = Rng::new(3);
        let mut w = Windows::new(&mut rng);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..FRESH {
            let (from, to) = w.fresh();
            assert!(from >= 0 && to <= DAYS && to - from > HOT_WIDTH);
            assert!(seen.insert((from, to)), "window {from}..{to} repeated");
        }
        let (from, to) = w.hot(&mut rng);
        assert_eq!(to - from, HOT_WIDTH);
        assert!(to <= DAYS);
    }
}
