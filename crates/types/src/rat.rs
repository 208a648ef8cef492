//! Radio access technologies.
//!
//! The study spans four RAT generations (2G GSM/CDMA, 3G UMTS/EVDO, 4G LTE,
//! 5G NR). Base stations may support several generations simultaneously
//! (the paper reports 23.4 % / 10.2 % / 65.2 % / 7.3 % support for 2G/3G/4G/5G,
//! summing past 100 %), so [`RatSet`] is a small bitset over [`Rat`].

use std::fmt;

/// A radio access technology generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rat {
    /// 2G (GSM / GPRS / EDGE / CDMA 1x).
    G2,
    /// 3G (UMTS / HSPA / EVDO).
    G3,
    /// 4G (LTE).
    G4,
    /// 5G (NR).
    G5,
}

impl Rat {
    /// All generations, ascending.
    pub const ALL: [Rat; 4] = [Rat::G2, Rat::G3, Rat::G4, Rat::G5];

    /// A stable small index (0..4) for array-indexed tables.
    pub const fn index(self) -> usize {
        match self {
            Rat::G2 => 0,
            Rat::G3 => 1,
            Rat::G4 => 2,
            Rat::G5 => 3,
        }
    }

    /// Inverse of [`Rat::index`]. Returns `None` for out-of-range indices.
    pub const fn from_index(i: usize) -> Option<Rat> {
        match i {
            0 => Some(Rat::G2),
            1 => Some(Rat::G3),
            2 => Some(Rat::G4),
            3 => Some(Rat::G5),
            _ => None,
        }
    }

    /// The generation number (2..=5).
    #[cfg(test)]
    pub(crate) const fn generation(self) -> u8 {
        match self {
            Rat::G2 => 2,
            Rat::G3 => 3,
            Rat::G4 => 4,
            Rat::G5 => 5,
        }
    }

    /// The conventional short label ("2G".."5G").
    pub const fn label(self) -> &'static str {
        match self {
            Rat::G2 => "2G",
            Rat::G3 => "3G",
            Rat::G4 => "4G",
            Rat::G5 => "5G",
        }
    }

    /// Nominal peak downlink data rate in Mbps for a *perfect* link, used by
    /// the data-rate side-effect model of the RAT-transition policy (§4.2).
    pub const fn peak_rate_mbps(self) -> f64 {
        match self {
            Rat::G2 => 0.2,
            Rat::G3 => 42.0,
            Rat::G4 => 1000.0,
            Rat::G5 => 10_000.0,
        }
    }

    /// The next-lower generation, if any.
    #[cfg(test)]
    pub(crate) const fn downgrade(self) -> Option<Rat> {
        match self {
            Rat::G2 => None,
            Rat::G3 => Some(Rat::G2),
            Rat::G4 => Some(Rat::G3),
            Rat::G5 => Some(Rat::G4),
        }
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A set of RATs, e.g. the technologies a base station or a phone supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RatSet(u8);

impl RatSet {
    /// The empty set.
    pub const EMPTY: RatSet = RatSet(0);

    /// Build from a slice of RATs.
    pub fn from_slice(rats: &[Rat]) -> Self {
        let mut s = RatSet::EMPTY;
        for &r in rats {
            s.insert(r);
        }
        s
    }

    /// Set containing every generation up to and including `max`
    /// (phones supporting 5G also support 4G/3G/2G, etc.).
    pub fn up_to(max: Rat) -> Self {
        let mut s = RatSet::EMPTY;
        for r in Rat::ALL {
            if r <= max {
                s.insert(r);
            }
        }
        s
    }

    /// Insert one RAT.
    pub fn insert(&mut self, r: Rat) {
        self.0 |= 1 << r.index();
    }

    /// Remove one RAT.
    #[cfg(test)]
    pub(crate) fn remove(&mut self, r: Rat) {
        self.0 &= !(1 << r.index());
    }

    /// Membership test.
    pub const fn contains(self, r: Rat) -> bool {
        self.0 & (1 << r.index()) != 0
    }

    /// True if no RAT is present.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of RATs present.
    pub const fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Set intersection.
    pub const fn intersection(self, other: RatSet) -> RatSet {
        RatSet(self.0 & other.0)
    }

    /// Set union.
    #[cfg(test)]
    pub(crate) const fn union(self, other: RatSet) -> RatSet {
        RatSet(self.0 | other.0)
    }

    /// The highest generation in the set, if any.
    pub fn highest(self) -> Option<Rat> {
        Rat::ALL.iter().rev().copied().find(|&r| self.contains(r))
    }

    /// The lowest generation in the set, if any.
    #[cfg(test)]
    pub(crate) fn lowest(self) -> Option<Rat> {
        Rat::ALL.iter().copied().find(|&r| self.contains(r))
    }

    /// Iterate members in ascending generation order.
    pub fn iter(self) -> impl Iterator<Item = Rat> {
        Rat::ALL.into_iter().filter(move |&r| self.contains(r))
    }
}

impl FromIterator<Rat> for RatSet {
    fn from_iter<T: IntoIterator<Item = Rat>>(iter: T) -> Self {
        let mut s = RatSet::EMPTY;
        for r in iter {
            s.insert(r);
        }
        s
    }
}

impl fmt::Display for RatSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        write!(f, "{{")?;
        for r in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{r}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trip() {
        for r in Rat::ALL {
            assert_eq!(Rat::from_index(r.index()), Some(r));
        }
        assert_eq!(Rat::from_index(4), None);
    }

    #[test]
    fn ordering_follows_generation() {
        assert!(Rat::G2 < Rat::G3 && Rat::G3 < Rat::G4 && Rat::G4 < Rat::G5);
        assert_eq!(Rat::G5.generation(), 5);
    }

    #[test]
    fn set_basics() {
        let mut s = RatSet::from_slice(&[Rat::G2, Rat::G4]);
        assert!(s.contains(Rat::G2) && s.contains(Rat::G4));
        assert!(!s.contains(Rat::G3));
        assert_eq!(s.len(), 2);
        s.insert(Rat::G5);
        assert_eq!(s.highest(), Some(Rat::G5));
        assert_eq!(s.lowest(), Some(Rat::G2));
        s.remove(Rat::G2);
        assert_eq!(s.lowest(), Some(Rat::G4));
    }

    #[test]
    fn up_to_builds_prefix_sets() {
        let s = RatSet::up_to(Rat::G4);
        assert!(s.contains(Rat::G2) && s.contains(Rat::G3) && s.contains(Rat::G4));
        assert!(!s.contains(Rat::G5));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn set_algebra() {
        let a = RatSet::from_slice(&[Rat::G2, Rat::G3]);
        let b = RatSet::from_slice(&[Rat::G3, Rat::G4]);
        assert_eq!(a.intersection(b), RatSet::from_slice(&[Rat::G3]));
        assert_eq!(a.union(b), RatSet::from_slice(&[Rat::G2, Rat::G3, Rat::G4]));
        assert!(RatSet::EMPTY.is_empty());
        assert_eq!(RatSet::EMPTY.highest(), None);
    }

    #[test]
    fn iteration_is_ascending() {
        let s = RatSet::from_slice(&[Rat::G5, Rat::G2, Rat::G4]);
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![Rat::G2, Rat::G4, Rat::G5]);
    }

    #[test]
    fn display() {
        let s = RatSet::from_slice(&[Rat::G4, Rat::G5]);
        assert_eq!(s.to_string(), "{4G,5G}");
    }

    #[test]
    fn downgrade_chain() {
        assert_eq!(Rat::G5.downgrade(), Some(Rat::G4));
        assert_eq!(Rat::G2.downgrade(), None);
    }
}
