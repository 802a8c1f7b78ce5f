/// A *k*-bit branch history shift register — the first-level state of a
/// two-level predictor.
///
/// The most recent outcome occupies the least significant bit.
///
/// # Example
///
/// ```
/// use bp_predictors::ShiftHistory;
///
/// let mut h = ShiftHistory::new(4);
/// h.push(true);
/// h.push(false);
/// h.push(true);
/// assert_eq!(h.value(), 0b101);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShiftHistory {
    bits: u64,
    mask: u64,
    len: u32,
}

impl ShiftHistory {
    /// Creates an all-zeros history of `len` bits.
    ///
    /// A zero-length register is allowed and degenerates to a constant:
    /// its value is always 0 and `push` is a no-op. Two-level predictors
    /// built on it collapse to their history-less (bimodal) form, which
    /// the conformance metamorphic laws exploit.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds 64.
    pub fn new(len: u32) -> Self {
        assert!(len <= 64, "history length must be 0..=64");
        let mask = if len == 64 {
            u64::MAX
        } else {
            (1u64 << len) - 1
        };
        ShiftHistory { bits: 0, mask, len }
    }

    /// Number of outcomes the register remembers.
    #[inline]
    pub fn len(&self) -> u32 {
        self.len
    }

    /// `true` only for the degenerate zero-length register.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Shifts in an outcome (`true` = taken) as the new least significant
    /// bit.
    #[inline]
    pub fn push(&mut self, taken: bool) {
        self.bits = ((self.bits << 1) | u64::from(taken)) & self.mask;
    }

    /// The packed history pattern.
    #[inline]
    pub fn value(&self) -> u64 {
        self.bits
    }

    /// Resets the register to all zeros.
    pub fn clear(&mut self) {
        self.bits = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_order_lsb_most_recent() {
        let mut h = ShiftHistory::new(3);
        h.push(true);
        h.push(true);
        h.push(false);
        assert_eq!(h.value(), 0b110);
    }

    #[test]
    fn wraps_at_length() {
        let mut h = ShiftHistory::new(2);
        for _ in 0..5 {
            h.push(true);
        }
        assert_eq!(h.value(), 0b11);
        h.push(false);
        assert_eq!(h.value(), 0b10);
    }

    #[test]
    fn full_width_history() {
        let mut h = ShiftHistory::new(64);
        h.push(true);
        assert_eq!(h.value(), 1);
        for _ in 0..63 {
            h.push(false);
        }
        assert_eq!(h.value(), 1 << 63);
        h.push(false);
        assert_eq!(h.value(), 0);
    }

    #[test]
    fn clear_resets() {
        let mut h = ShiftHistory::new(8);
        h.push(true);
        h.clear();
        assert_eq!(h.value(), 0);
        assert_eq!(h.len(), 8);
        assert!(!h.is_empty());
    }

    #[test]
    fn zero_length_is_constant_zero() {
        let mut h = ShiftHistory::new(0);
        assert!(h.is_empty());
        assert_eq!(h.len(), 0);
        h.push(true);
        h.push(true);
        assert_eq!(h.value(), 0);
    }

    #[test]
    #[should_panic(expected = "history length")]
    fn oversize_length_rejected() {
        let _ = ShiftHistory::new(65);
    }
}
