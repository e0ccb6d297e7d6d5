//! Two-mode networks (Section 6, Figure 6 right).
//!
//! "Built by 10 alternations of one period of high activity and one period of
//! low activity, which are time uniform networks with parameters N1, T1 and
//! N2, T2 respectively. N1, N2 and the whole length T = 10(T1 + T2) of study
//! are fixed and we vary the ratio between T1 and T2."

use rand::{Rng, SeedableRng};
use saturn_linkstream::{Directedness, LinkStream, LinkStreamBuilder};

/// Generator configuration for two-mode networks.
#[derive(Clone, Copy, Debug)]
pub struct TwoMode {
    /// Number of nodes.
    pub nodes: u32,
    /// Number of high/low alternations (the paper uses 10).
    pub alternations: u32,
    /// Total study period `T = alternations · (T1 + T2)` in ticks.
    pub span: i64,
    /// Links per pair per **high**-activity period.
    pub links_high: u32,
    /// Links per pair per **low**-activity period.
    pub links_low: u32,
    /// Share of each alternation spent in the low-activity mode,
    /// `ρ = T2/(T1 + T2) ∈ [0, 1]` — the x-axis of Figure 6 (right).
    pub low_share: f64,
    /// RNG seed.
    pub seed: u64,
}

impl TwoMode {
    /// Generates the stream. Periods of zero length contribute no link (at
    /// `ρ = 0` the network is purely high-activity, at `ρ = 1` purely low).
    ///
    /// # Panics
    /// Panics on degenerate parameters (`nodes < 2`, `alternations == 0`,
    /// `span < alternations`, `low_share` outside `[0, 1]`, or both link
    /// counts zero).
    pub fn generate(&self) -> LinkStream {
        assert!(self.nodes >= 2 && self.alternations >= 1);
        assert!((0.0..=1.0).contains(&self.low_share), "low_share must be in [0, 1]");
        assert!(self.span >= self.alternations as i64);
        assert!(self.links_high > 0 || self.links_low > 0);

        let period = self.span as f64 / self.alternations as f64;
        let t1 = period * (1.0 - self.low_share); // high-activity length
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        let mut b = LinkStreamBuilder::indexed(Directedness::Undirected, self.nodes);
        b.period(0, self.span);

        for a in 0..self.alternations {
            let base = a as f64 * period;
            // high segment [base, base + t1), low segment [base + t1, base + period)
            let segments = [
                (base, base + t1, self.links_high),
                (base + t1, base + period, self.links_low),
            ];
            for (lo, hi, links) in segments {
                let lo_t = lo.ceil() as i64;
                let hi_t = (hi.floor() as i64).min(self.span);
                if links == 0 || hi_t <= lo_t {
                    continue;
                }
                for u in 0..self.nodes {
                    for v in (u + 1)..self.nodes {
                        for _ in 0..links {
                            let t = rng.gen_range(lo_t..hi_t);
                            b.add_indexed(u, v, t);
                        }
                    }
                }
            }
        }
        b.build().expect("at least one segment generates links")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(low_share: f64) -> TwoMode {
        TwoMode {
            nodes: 6,
            alternations: 4,
            span: 8_000,
            links_high: 6,
            links_low: 1,
            low_share,
            seed: 5,
        }
    }

    #[test]
    fn pure_high_mode_at_zero_share() {
        let s = cfg(0.0).generate();
        // 15 pairs × 6 links × 4 alternations = 360 (minus rare dedups)
        assert!(s.len() >= 350);
    }

    #[test]
    fn pure_low_mode_at_full_share() {
        let s = cfg(1.0).generate();
        // 15 pairs × 1 link × 4 alternations = 60
        assert!(s.len() >= 55 && s.len() <= 60);
    }

    #[test]
    fn high_segments_carry_more_events() {
        let tm = cfg(0.5);
        let s = tm.generate();
        let period = 8_000.0 / 4.0;
        let mut high = 0usize;
        let mut low = 0usize;
        for l in s.events() {
            let phase = (l.t.ticks() as f64) % period;
            if phase < period * 0.5 {
                high += 1;
            } else {
                low += 1;
            }
        }
        assert!(high > 3 * low, "high-activity segments must dominate: high={high} low={low}");
    }

    #[test]
    fn deterministic() {
        let a = cfg(0.3).generate();
        let b = cfg(0.3).generate();
        assert_eq!(a.events(), b.events());
    }

    #[test]
    #[should_panic(expected = "low_share")]
    fn rejects_bad_share() {
        cfg(1.5).generate();
    }
}
