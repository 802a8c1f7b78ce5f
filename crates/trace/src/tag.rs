use crate::record::Pc;

/// How a prior branch *instance* is named relative to the current branch
/// (paper §3.2).
///
/// In tight loops several dynamic instances of the same static branch fit in
/// the examined window, so the address alone is ambiguous. The paper tags
/// instances two complementary ways and treats tags from the two schemes as
/// distinct candidates:
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TagScheme {
    /// Number instances of a static branch from the current branch
    /// backwards: `A0` is the most recent occurrence of `A`, `A1` the one
    /// before it, and so on. Precise about recency, but cannot pin a branch
    /// to a particular loop iteration when it does not execute every
    /// iteration.
    Occurrence,
    /// Number an instance by how many *backward* branches executed between
    /// it and the current branch. Pins instances to loop iterations, but
    /// names branches from before the loop differently as iterations pass.
    Iteration,
}

impl TagScheme {
    /// Both schemes, in a stable order.
    pub const ALL: [TagScheme; 2] = [TagScheme::Occurrence, TagScheme::Iteration];
}

/// A named instance of a prior static branch, relative to the branch being
/// predicted.
///
/// `index` is the occurrence number ([`TagScheme::Occurrence`]) or the
/// backward-branch count ([`TagScheme::Iteration`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceTag {
    /// Static address of the prior branch.
    pub pc: Pc,
    /// Instance number under `scheme`.
    pub index: u16,
    /// Which tagging scheme `index` is expressed in.
    pub scheme: TagScheme,
}

impl InstanceTag {
    /// Convenience constructor for an occurrence-scheme tag.
    pub fn occurrence(pc: Pc, index: u16) -> Self {
        InstanceTag {
            pc,
            index,
            scheme: TagScheme::Occurrence,
        }
    }

    /// Convenience constructor for an iteration-scheme tag.
    pub fn iteration(pc: Pc, index: u16) -> Self {
        InstanceTag {
            pc,
            index,
            scheme: TagScheme::Iteration,
        }
    }
}

/// The ternary outcome of looking an [`InstanceTag`] up in the path leading
/// to the current branch (paper §3.4).
///
/// A selective history is built from these outcomes: with *k* tags the
/// history has `3^k` possible patterns, each selecting its own two-bit
/// counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TagOutcome {
    /// The tagged instance is in the window and was taken.
    Taken,
    /// The tagged instance is in the window and was not taken.
    NotTaken,
    /// The tagged instance does not appear in the last *n* branches.
    NotInPath,
}

impl TagOutcome {
    /// Radix-3 digit used when composing a selective-history pattern index.
    #[inline]
    pub fn digit(self) -> usize {
        match self {
            TagOutcome::Taken => 0,
            TagOutcome::NotTaken => 1,
            TagOutcome::NotInPath => 2,
        }
    }

    /// Inverse of [`TagOutcome::digit`].
    ///
    /// # Panics
    ///
    /// Panics if `d > 2`.
    #[inline]
    pub fn from_digit(d: usize) -> Self {
        match d {
            0 => TagOutcome::Taken,
            1 => TagOutcome::NotTaken,
            2 => TagOutcome::NotInPath,
            _ => panic!("tag outcome digit out of range: {d}"),
        }
    }

    /// Maps a branch outcome to the corresponding in-path tag outcome.
    #[inline]
    pub fn from_taken(taken: bool) -> Self {
        if taken {
            TagOutcome::Taken
        } else {
            TagOutcome::NotTaken
        }
    }
}

/// Composes the radix-3 pattern index of a sequence of tag outcomes.
///
/// An empty slice yields pattern 0 (the degenerate single-counter history).
pub fn pattern_index(outcomes: &[TagOutcome]) -> usize {
    outcomes.iter().fold(0, |acc, o| acc * 3 + o.digit())
}

/// Number of distinct patterns for a selective history of `k` tags: `3^k`.
pub fn pattern_count(k: usize) -> usize {
    3usize.pow(k as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digit_roundtrip() {
        for d in 0..3 {
            assert_eq!(TagOutcome::from_digit(d).digit(), d);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn digit_out_of_range_panics() {
        let _ = TagOutcome::from_digit(3);
    }

    #[test]
    fn from_taken() {
        assert_eq!(TagOutcome::from_taken(true), TagOutcome::Taken);
        assert_eq!(TagOutcome::from_taken(false), TagOutcome::NotTaken);
    }

    #[test]
    fn pattern_index_radix3() {
        use TagOutcome::*;
        assert_eq!(pattern_index(&[]), 0);
        assert_eq!(pattern_index(&[Taken]), 0);
        assert_eq!(pattern_index(&[NotInPath]), 2);
        assert_eq!(pattern_index(&[Taken, NotTaken, NotInPath]), 5); // 0*9 + 1*3 + 2
        assert_eq!(pattern_index(&[NotInPath, NotInPath, NotInPath]), 26);
    }

    #[test]
    fn pattern_count_powers() {
        assert_eq!(pattern_count(0), 1);
        assert_eq!(pattern_count(1), 3);
        assert_eq!(pattern_count(2), 9);
        assert_eq!(pattern_count(3), 27);
    }

    #[test]
    fn tag_constructors() {
        let a = InstanceTag::occurrence(10, 2);
        let b = InstanceTag::iteration(10, 2);
        assert_ne!(a, b);
        assert_eq!(a.scheme, TagScheme::Occurrence);
        assert_eq!(b.scheme, TagScheme::Iteration);
    }
}
