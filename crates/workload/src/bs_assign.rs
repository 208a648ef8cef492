//! Base-station failure attribution (Fig. 11 and §3.3).
//!
//! The paper ranks 5.3 M BSes by experienced failures and finds a Zipf-like
//! skew (a = 0.82, b = 17.12): median 1 failure, mean 444, maximum 8.94 M,
//! with the top-ranked BSes sitting in crowded urban areas. The macro study
//! assigns each failure to a BS through a Zipf rank sampler whose top ranks
//! are tagged urban/hub.

use cellrel_sim::{ClassMasks, SimRng, WeightedIndex};
use cellrel_types::{BsId, Isp, Rat, RatSet};

/// A synthetic BS directory entry used by the macro study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MacroBs {
    /// Protocol identity.
    pub id: BsId,
    /// Owning ISP.
    pub isp: Isp,
    /// Supported RATs.
    pub rats: RatSet,
    /// Whether the site is in a crowded urban area / hub (the top-failure
    /// population of §3.3).
    pub urban: bool,
}

/// Assigns failures to base stations with the paper's Zipf skew.
#[derive(Debug)]
pub struct BsAssigner {
    directory: Vec<MacroBs>,
    zipf: WeightedIndex,
    /// Per-ISP index ranges into a shuffled rank permutation.
    rank_to_bs: Vec<u32>,
    /// Per rank, the [`pair_bit`]s of the (ISP, RAT) pairs its BS accepts.
    fits: ClassMasks,
}

/// The class bit of one (ISP, RAT) pair: 12 pairs in a `u16`.
fn pair_bit(isp: Isp, rat: Rat) -> u16 {
    1 << (isp.index() * Rat::ALL.len() + rat.index())
}

impl BsAssigner {
    /// The paper's fitted Zipf exponent.
    pub(crate) const PAPER_ZIPF_A: f64 = 0.82;

    /// Build a directory of `n` base stations with ISP shares and RAT
    /// support per the paper, and a Zipf rank permutation. The *top ranks*
    /// are biased toward urban sites (crowded-area finding).
    pub(crate) fn new(n: usize, rng: &mut SimRng) -> Self {
        assert!(n > 0);
        let mut rng = rng.fork(0xB5A5);
        let mut directory = Vec::with_capacity(n);
        for i in 0..n {
            let isp = match rng.weighted_index(&[0.448, 0.294, 0.258]) {
                0 => Isp::A,
                1 => Isp::B,
                _ => Isp::C,
            };
            // Profile mix whose marginals hit the paper's shares (23.4 %,
            // 10.2 %, 65.2 %, 7.3 %): the >100 % overlap is attributed to
            // 4G+5G co-deployment, as in the radio deployment generator.
            let rats = match rng.weighted_index(&[0.234, 0.102, 0.591, 0.061, 0.012]) {
                0 => RatSet::from_slice(&[Rat::G2]),
                1 => RatSet::from_slice(&[Rat::G3]),
                2 => RatSet::from_slice(&[Rat::G4]),
                3 => RatSet::from_slice(&[Rat::G4, Rat::G5]),
                _ => RatSet::from_slice(&[Rat::G5]),
            };
            let urban = rng.chance(0.45);
            let mnc = match isp {
                Isp::A => 0,
                Isp::B => 11,
                Isp::C => 1,
            };
            directory.push(MacroBs {
                id: BsId::gsm_cn(mnc, (i / 4096) as u16, i as u32),
                isp,
                rats,
                urban,
            });
        }

        // Rank permutation biased so urban sites fill the top ranks: sort by
        // a noisy urban-first key.
        let mut order: Vec<u32> = (0..n as u32).collect();
        let keys: Vec<f64> = directory
            .iter()
            .map(|bs| {
                let urban_pull = if bs.urban { 0.0 } else { 1.0 };
                urban_pull + rng.f64() * 0.8
            })
            .collect();
        order.sort_by(|&a, &b| {
            keys[a as usize]
                .partial_cmp(&keys[b as usize])
                .expect("finite keys")
        });

        let zipf = WeightedIndex::zipf(n, Self::PAPER_ZIPF_A);
        let fits = order
            .iter()
            .map(|&i| {
                let bs = &directory[i as usize];
                bs.rats
                    .iter()
                    .fold(0, |acc, rat| acc | pair_bit(bs.isp, rat))
            })
            .collect();
        BsAssigner {
            fits: zipf.class_masks(fits),
            directory,
            zipf,
            rank_to_bs: order,
        }
    }

    /// Number of base stations.
    pub fn len(&self) -> usize {
        self.directory.len()
    }

    /// Always false; provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.directory.is_empty()
    }

    /// Directory access.
    pub fn directory(&self) -> &[MacroBs] {
        &self.directory
    }

    /// Draw the BS a failure is attributed to, constrained to the device's
    /// ISP and a RAT the BS must support; each of the 64 tries is one
    /// [`WeightedIndex::sample_in_class`]. Then an unconstrained draw, which
    /// is not rare: it comes with chance `(1 − p)⁶⁴`, `p` the Zipf mass of
    /// the fitting ranks, 27–57 % of 5G and 7–31 % of 3G calls at 2 000 BSes
    /// (by ISP), and puts the failure on a BS of any ISP and RAT (DESIGN §11).
    pub(crate) fn assign(&self, isp: Isp, rat: Rat, rng: &mut SimRng) -> &MacroBs {
        let want = pair_bit(isp, rat);
        let rank = (0..64)
            .find_map(|_| self.zipf.sample_in_class(&self.fits, want, rng))
            // Unconstrained fallback (keeps the sampler total).
            .unwrap_or_else(|| self.zipf.sample(rng));
        &self.directory[self.rank_to_bs[rank] as usize]
    }

    /// The oracle [`Self::assign`] must match: resolve every draw, then
    /// test the BS it names.
    #[cfg(test)]
    fn assign_by_rejection(&self, isp: Isp, rat: Rat, rng: &mut SimRng) -> &MacroBs {
        for _ in 0..64 {
            let rank = self.zipf.sample(rng);
            let bs = &self.directory[self.rank_to_bs[rank] as usize];
            if bs.isp == isp && bs.rats.contains(rat) {
                return bs;
            }
        }
        let rank = self.zipf.sample(rng);
        &self.directory[self.rank_to_bs[rank] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellrel_sim::fit_zipf;
    use std::collections::HashMap;

    #[test]
    fn directory_shares_follow_paper() {
        let mut rng = SimRng::new(1);
        let a = BsAssigner::new(20_000, &mut rng);
        let n = a.len() as f64;
        let isp_a = a.directory().iter().filter(|b| b.isp == Isp::A).count() as f64 / n;
        assert!((isp_a - 0.448).abs() < 0.02, "ISP-A share {isp_a}");
        let g4 = a
            .directory()
            .iter()
            .filter(|b| b.rats.contains(Rat::G4))
            .count() as f64
            / n;
        assert!((g4 - 0.66).abs() < 0.05, "4G share {g4}");
    }

    #[test]
    fn assignment_respects_constraints_mostly() {
        let mut rng = SimRng::new(2);
        let a = BsAssigner::new(5_000, &mut rng);
        let mut ok = 0;
        for _ in 0..2_000 {
            let bs = a.assign(Isp::B, Rat::G4, &mut rng);
            if bs.isp == Isp::B && bs.rats.contains(Rat::G4) {
                ok += 1;
            }
        }
        assert!(ok > 1_950, "constraint satisfaction {ok}/2000");
    }

    #[test]
    fn bucket_skip_assigns_exactly_as_the_rejection_loop() {
        for n in [1, 7, 2_000, 20_000] {
            let mut rng = SimRng::new(2021);
            let a = BsAssigner::new(n, &mut rng);
            for isp in Isp::ALL {
                for rat in Rat::ALL {
                    let mut oracle = rng.clone();
                    for _ in 0..500 {
                        let got = a.assign(isp, rat, &mut rng);
                        let want = a.assign_by_rejection(isp, rat, &mut oracle);
                        assert!(std::ptr::eq(got, want), "{n} BSes, {isp:?} {rat:?}");
                        assert_eq!(rng.f64().to_bits(), oracle.f64().to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn failure_counts_fit_a_zipf_near_the_paper_exponent() {
        let mut rng = SimRng::new(3);
        let a = BsAssigner::new(3_000, &mut rng);
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for _ in 0..400_000 {
            let bs = a.assign(Isp::A, Rat::G4, &mut rng);
            *counts.entry(bs.id.as_u64()).or_default() += 1;
        }
        let mut desc: Vec<u64> = counts.values().copied().collect();
        desc.sort_unstable_by(|x, y| y.cmp(x));
        let head = &desc[..desc.len().min(400)];
        let (fit_a, _b, r2) = fit_zipf(head);
        assert!(
            (0.55..1.1).contains(&fit_a),
            "zipf exponent {fit_a} (r²={r2})"
        );
        assert!(r2 > 0.8, "poor zipf fit r² {r2}");
        // Skew facts: max ≫ median.
        let max = desc[0];
        let median = desc[desc.len() / 2];
        assert!(max > median * 20, "max {max} vs median {median}");
    }

    #[test]
    fn top_ranked_bses_are_mostly_urban() {
        let mut rng = SimRng::new(4);
        let a = BsAssigner::new(10_000, &mut rng);
        let mut counts: HashMap<usize, u64> = HashMap::new();
        for _ in 0..200_000 {
            let bs = a.assign(Isp::A, Rat::G4, &mut rng);
            // Recover index from cid.
            let BsId::Gsm { cid, .. } = bs.id else {
                unreachable!()
            };
            *counts.entry(cid as usize).or_default() += 1;
        }
        let mut ranked: Vec<(usize, u64)> = counts.into_iter().collect();
        // Tie-break by index: `counts` comes out of a HashMap, so equal
        // counts would otherwise rank in iteration order and the top-100
        // cut (and this assertion) could wobble between runs.
        ranked.sort_by_key(|&(idx, c)| (std::cmp::Reverse(c), idx));
        let top100_urban = ranked[..100]
            .iter()
            .filter(|(idx, _)| a.directory()[*idx].urban)
            .count();
        assert!(
            top100_urban > 80,
            "top-100 urban fraction {top100_urban}/100"
        );
    }
}
