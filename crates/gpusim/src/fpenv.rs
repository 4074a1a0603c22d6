//! The floating-point environment a kernel executes under.

use fpcore::ftz::FtzMode;
use serde::Serialize;

/// Per-precision flush behaviour for a kernel execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct FpEnv {
    /// FTZ/DAZ mode applied to FP32 operations.
    pub ftz32: FtzMode,
    /// FTZ/DAZ mode applied to FP64 operations.
    pub ftz64: FtzMode,
}

impl FpEnv {
    /// Fully IEEE-compliant environment (both precisions keep subnormals).
    pub fn ieee() -> Self {
        FpEnv { ftz32: FtzMode::IEEE, ftz64: FtzMode::IEEE }
    }
}

impl Default for FpEnv {
    fn default() -> Self {
        FpEnv::ieee()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_ieee() {
        assert_eq!(FpEnv::default(), FpEnv::ieee());
        assert_eq!(FpEnv::ieee().ftz32, FtzMode::IEEE);
    }
}
