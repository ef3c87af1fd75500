use std::fmt;


/// An architectural register: integer registers `r0..r31` and floating-point
/// registers `f0..f31`.
///
/// `r31` is hard-wired to zero (as on Alpha); writes to it are discarded and
/// it never creates a data dependence. The type is a compact `u8` index so
/// it can be used directly in rename tables.
///
/// ```
/// use mos_isa::Reg;
/// let r = Reg::int(3);
/// assert!(r.is_int() && !r.is_zero());
/// assert_eq!(r.to_string(), "r3");
/// assert!(Reg::ZERO.is_zero());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

impl Reg {
    /// Number of integer architectural registers.
    pub const NUM_INT: u8 = 32;
    /// Number of floating-point architectural registers.
    pub const NUM_FP: u8 = 32;
    /// Total architectural register count (integer + floating point).
    pub const NUM: usize = (Self::NUM_INT + Self::NUM_FP) as usize;
    /// The hard-wired zero register (`r31`).
    pub const ZERO: Reg = Reg(31);
    /// Conventional stack-pointer register (`r30`).
    pub const SP: Reg = Reg(30);
    /// Conventional return-address register (`r26`), written by calls.
    pub const RA: Reg = Reg(26);

    /// Integer register `r<n>`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    pub const fn int(n: u8) -> Reg {
        assert!(n < Self::NUM_INT);
        Reg(n)
    }

    /// Floating-point register `f<n>`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    pub const fn fp(n: u8) -> Reg {
        assert!(n < Self::NUM_FP);
        Reg(Self::NUM_INT + n)
    }

    /// Flat index in `0..Reg::NUM`, usable as a rename-table key.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuild a register from [`Reg::index`].
    ///
    /// # Panics
    ///
    /// Panics if `index >= Reg::NUM`.
    pub fn from_index(index: usize) -> Reg {
        assert!(index < Self::NUM);
        Reg(index as u8)
    }

    /// `true` for integer registers (including the zero register).
    pub const fn is_int(self) -> bool {
        self.0 < Self::NUM_INT
    }

    /// `true` for floating-point registers.
    pub const fn is_fp(self) -> bool {
        self.0 >= Self::NUM_INT
    }

    /// `true` for the hard-wired zero register, which never participates in
    /// dependences.
    pub const fn is_zero(self) -> bool {
        self.0 == Self::ZERO.0
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_int() {
            write!(f, "r{}", self.0)
        } else {
            write!(f, "f{}", self.0 - Self::NUM_INT)
        }
    }
}

/// The dependence-carrying source registers of one instruction, stored
/// inline: a [`StaticInst`](crate::StaticInst) has at most two sources, so
/// the rename and detection stages copy this instead of collecting a
/// `Vec`. Dereferences to a slice in operand order; duplicates (`add r1,
/// r2, r2`) are kept, as [`StaticInst::src_regs`](crate::StaticInst::src_regs)
/// yields them.
///
/// ```
/// use mos_isa::{Reg, SrcRegs};
/// let s: SrcRegs = [Reg::int(2), Reg::int(2)].into_iter().collect();
/// assert_eq!(s.len(), 2);
/// assert!(s.contains(&Reg::int(2)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SrcRegs {
    regs: [Reg; 2],
    len: u8,
}

impl SrcRegs {
    /// No sources.
    pub const EMPTY: SrcRegs = SrcRegs {
        regs: [Reg::ZERO; 2],
        len: 0,
    };

    /// Append a source.
    ///
    /// # Panics
    ///
    /// Panics if two sources are already present.
    pub fn push(&mut self, r: Reg) {
        assert!(self.len < 2, "an instruction has at most two sources");
        self.regs[usize::from(self.len)] = r;
        self.len += 1;
    }
}

impl Default for SrcRegs {
    fn default() -> SrcRegs {
        SrcRegs::EMPTY
    }
}

impl std::ops::Deref for SrcRegs {
    type Target = [Reg];
    fn deref(&self) -> &[Reg] {
        &self.regs[..usize::from(self.len)]
    }
}

impl FromIterator<Reg> for SrcRegs {
    fn from_iter<I: IntoIterator<Item = Reg>>(iter: I) -> SrcRegs {
        let mut s = SrcRegs::EMPTY;
        for r in iter {
            s.push(r);
        }
        s
    }
}

impl<'a> IntoIterator for &'a SrcRegs {
    type Item = &'a Reg;
    type IntoIter = std::slice::Iter<'a, Reg>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_and_fp_spaces_are_disjoint() {
        assert_ne!(Reg::int(0), Reg::fp(0));
        assert!(Reg::int(5).is_int());
        assert!(Reg::fp(5).is_fp());
        assert!(!Reg::fp(5).is_int());
    }

    #[test]
    fn zero_register() {
        assert!(Reg::ZERO.is_zero());
        assert!(Reg::ZERO.is_int());
        assert!(!Reg::int(0).is_zero());
    }

    #[test]
    fn index_round_trip() {
        for i in 0..Reg::NUM {
            assert_eq!(Reg::from_index(i).index(), i);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Reg::int(7).to_string(), "r7");
        assert_eq!(Reg::fp(7).to_string(), "f7");
        assert_eq!(Reg::ZERO.to_string(), "r31");
    }

    #[test]
    fn src_regs_keep_order_and_duplicates() {
        let s: SrcRegs = [Reg::int(4), Reg::int(1)].into_iter().collect();
        assert_eq!(&*s, &[Reg::int(4), Reg::int(1)]);
        assert_eq!(SrcRegs::default().len(), 0);
        assert_eq!(SrcRegs::default(), SrcRegs::EMPTY);
    }

    #[test]
    #[should_panic]
    fn third_source_panics() {
        let _: SrcRegs = [Reg::int(1); 3].into_iter().collect();
    }

    #[test]
    #[should_panic]
    fn out_of_range_int_panics() {
        let _ = Reg::int(32);
    }
}
