//! Integer and floating-point architectural register names.
//!
//! Registers are thin newtypes over the 5-bit register index so that the
//! assembler and decoder can be type-checked (an `FReg` can never be passed
//! where a `Reg` is expected), while staying `Copy` and free to pass around.
// bsim: allow-file(AU005) the ABI register names are a table; kernels use a subset

use std::fmt;
use std::num::NonZeroU8;

/// An integer (x) register, `x0`..`x31`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u8);

/// A floating-point (f) register, `f0`..`f31`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FReg(pub u8);

impl Reg {
    /// Constructs a register from a raw 5-bit index, panicking on overflow.
    #[inline]
    pub fn new(i: u8) -> Reg {
        assert!(i < 32, "integer register index out of range: {i}");
        Reg(i)
    }

    /// The raw register number.
    #[inline]
    pub fn num(self) -> u8 {
        self.0
    }

    /// ABI mnemonic for this register (`zero`, `ra`, `sp`, ...).
    fn abi_name(self) -> &'static str {
        const NAMES: [&str; 32] = [
            "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3",
            "a4", "a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11",
            "t3", "t4", "t5", "t6",
        ];
        NAMES[self.0 as usize]
    }
}

impl FReg {
    /// Constructs an FP register from a raw 5-bit index, panicking on overflow.
    #[inline]
    pub fn new(i: u8) -> FReg {
        assert!(i < 32, "fp register index out of range: {i}");
        FReg(i)
    }

    /// The raw register number.
    #[inline]
    pub fn num(self) -> u8 {
        self.0
    }

    /// ABI mnemonic for this register (`ft0`, `fa0`, ...).
    fn abi_name(self) -> &'static str {
        const NAMES: [&str; 32] = [
            "ft0", "ft1", "ft2", "ft3", "ft4", "ft5", "ft6", "ft7", "fs0", "fs1", "fa0", "fa1",
            "fa2", "fa3", "fa4", "fa5", "fa6", "fa7", "fs2", "fs3", "fs4", "fs5", "fs6", "fs7",
            "fs8", "fs9", "fs10", "fs11", "ft8", "ft9", "ft10", "ft11",
        ];
        NAMES[self.0 as usize]
    }
}

/// A register operand in the unified numbering the timing models read:
/// x1–x31 are 1–31 and f0–f31 are 32–63. `x0` has no `Ureg`: its writes
/// are discarded and it always reads zero, so it carries no dependence.
/// That leaves 0 as the niche, so `Option<Ureg>` is one byte and `None`
/// is the byte 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Ureg(NonZeroU8);

impl Ureg {
    /// The unified register numbered `n`, or `None` for 0 (`x0`).
    /// Panics at 64 and above.
    #[inline]
    pub const fn new(n: u8) -> Option<Ureg> {
        assert!(n < 64, "unified register index out of range");
        match NonZeroU8::new(n) {
            Some(n) => Some(Ureg(n)),
            None => None,
        }
    }

    /// Integer register `r`, or `None` for `x0`.
    #[inline]
    pub const fn x(r: Reg) -> Option<Ureg> {
        Ureg::new(r.0)
    }

    /// Floating-point register `r`: `f0` is 32.
    #[inline]
    pub const fn f(r: FReg) -> Ureg {
        match Ureg::new(32 | r.0) {
            Some(u) => u,
            None => unreachable!(),
        }
    }

    /// The unified number, 1–63.
    #[inline]
    pub const fn num(self) -> u8 {
        self.0.get()
    }

    /// The unified number as an index into a 64-entry table.
    #[inline]
    pub const fn index(self) -> usize {
        self.0.get() as usize
    }
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.abi_name())
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.abi_name())
    }
}

impl fmt::Debug for FReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.abi_name())
    }
}

impl fmt::Display for FReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.abi_name())
    }
}

/// Hard-wired zero.
pub const ZERO: Reg = Reg(0);
/// Return address.
pub const RA: Reg = Reg(1);
/// Stack pointer.
pub const SP: Reg = Reg(2);
/// Global pointer.
pub const GP: Reg = Reg(3);
/// Thread pointer.
pub const TP: Reg = Reg(4);
/// Temporary 0.
pub const T0: Reg = Reg(5);
/// Temporary 1.
pub const T1: Reg = Reg(6);
/// Temporary 2.
pub const T2: Reg = Reg(7);
/// Saved register 0 / frame pointer.
pub const S0: Reg = Reg(8);
/// Saved register 1.
pub const S1: Reg = Reg(9);
/// Argument/return 0.
pub const A0: Reg = Reg(10);
/// Argument/return 1.
pub const A1: Reg = Reg(11);
/// Argument 2.
pub const A2: Reg = Reg(12);
/// Argument 3.
pub const A3: Reg = Reg(13);
/// Argument 4.
pub const A4: Reg = Reg(14);
/// Argument 5.
pub const A5: Reg = Reg(15);
/// Argument 6.
pub const A6: Reg = Reg(16);
/// Argument 7 / syscall number.
pub const A7: Reg = Reg(17);
/// Saved register 2.
pub const S2: Reg = Reg(18);
/// Saved register 3.
pub const S3: Reg = Reg(19);
/// Saved register 4.
pub const S4: Reg = Reg(20);
/// Saved register 5.
pub const S5: Reg = Reg(21);
/// Saved register 6.
pub const S6: Reg = Reg(22);
/// Saved register 7.
pub const S7: Reg = Reg(23);
/// Saved register 8.
pub const S8: Reg = Reg(24);
/// Saved register 9.
pub const S9: Reg = Reg(25);
/// Saved register 10.
pub const S10: Reg = Reg(26);
/// Saved register 11.
pub const S11: Reg = Reg(27);
/// Temporary 3.
pub const T3: Reg = Reg(28);
/// Temporary 4.
pub const T4: Reg = Reg(29);
/// Temporary 5.
pub const T5: Reg = Reg(30);
/// Temporary 6.
pub const T6: Reg = Reg(31);

/// FP temporary 0.
pub const FT0: FReg = FReg(0);
/// FP temporary 1.
pub const FT1: FReg = FReg(1);
/// FP temporary 2.
pub const FT2: FReg = FReg(2);
/// FP temporary 3.
pub const FT3: FReg = FReg(3);
/// FP temporary 4.
pub const FT4: FReg = FReg(4);
/// FP temporary 5.
pub const FT5: FReg = FReg(5);
/// FP temporary 6.
pub const FT6: FReg = FReg(6);
/// FP temporary 7.
pub const FT7: FReg = FReg(7);
/// FP saved 0.
pub const FS0: FReg = FReg(8);
/// FP saved 1.
pub const FS1: FReg = FReg(9);
/// FP argument/return 0.
pub const FA0: FReg = FReg(10);
/// FP argument/return 1.
pub const FA1: FReg = FReg(11);
/// FP argument 2.
pub const FA2: FReg = FReg(12);
/// FP argument 3.
pub const FA3: FReg = FReg(13);
/// FP argument 4.
pub const FA4: FReg = FReg(14);
/// FP argument 5.
pub const FA5: FReg = FReg(15);
/// FP temporary 8.
pub const FT8: FReg = FReg(28);
/// FP temporary 9.
pub const FT9: FReg = FReg(29);
/// FP temporary 10.
pub const FT10: FReg = FReg(30);
/// FP temporary 11.
pub const FT11: FReg = FReg(31);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abi_names_match_spec() {
        assert_eq!(ZERO.abi_name(), "zero");
        assert_eq!(RA.abi_name(), "ra");
        assert_eq!(SP.abi_name(), "sp");
        assert_eq!(A0.abi_name(), "a0");
        assert_eq!(A7.abi_name(), "a7");
        assert_eq!(T6.abi_name(), "t6");
        assert_eq!(S11.abi_name(), "s11");
        assert_eq!(FA0.abi_name(), "fa0");
        assert_eq!(FReg(31).abi_name(), "ft11");
    }

    #[test]
    #[should_panic]
    fn reg_out_of_range_panics() {
        let _ = Reg::new(32);
    }

    #[test]
    fn unified_numbering_omits_x0_and_puts_fp_at_32() {
        assert_eq!(Ureg::x(ZERO), None);
        assert_eq!(Ureg::x(T6).map(Ureg::num), Some(31));
        assert_eq!(Ureg::f(FT0).num(), 32);
        assert_eq!(Ureg::f(FT11).index(), 63);
        assert_eq!(Ureg::new(40), Some(Ureg::f(FS0)));
    }

    #[test]
    #[should_panic]
    fn ureg_out_of_range_panics() {
        let _ = Ureg::new(64);
    }

    #[test]
    fn display_uses_abi_names() {
        assert_eq!(format!("{}", A3), "a3");
        assert_eq!(format!("{:?}", FT2), "ft2");
    }
}
