//! Simulated device definitions.

use crate::fpenv::FpEnv;
use crate::mathlib::{amd::AmdMathLib, nv::NvMathLib, MathLib};
use fpcore::ftz::FtzMode;
use serde::{Deserialize, Serialize};

/// Which vendor a simulated device models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum DeviceKind {
    /// NVIDIA-like device (V100 analogue; the paper's Lassen system).
    NvidiaLike,
    /// AMD-like device (MI250X analogue; the paper's Tioga system).
    AmdLike,
}

impl DeviceKind {
    /// Both kinds, NVIDIA first (matching the paper's NVCC\HIPCC tables).
    pub const ALL: [DeviceKind; 2] = [DeviceKind::NvidiaLike, DeviceKind::AmdLike];

    /// Marketing-style name for reports.
    pub fn name(self) -> &'static str {
        match self {
            DeviceKind::NvidiaLike => "NVIDIA-like (V100 sim)",
            DeviceKind::AmdLike => "AMD-like (MI250X sim)",
        }
    }

    /// Terse vendor tag for metric names (`nv` / `amd`).
    pub fn short(self) -> &'static str {
        match self {
            DeviceKind::NvidiaLike => "nv",
            DeviceKind::AmdLike => "amd",
        }
    }
}

impl std::fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Ablation toggles for the individual divergence mechanisms documented in
/// DESIGN.md §4. With everything off, the two devices produce bit-identical
/// results for every program — a property the integration tests verify.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuirkSet {
    /// Mechanism 1: contrasting `fmod` algorithms (exact vs chunked).
    pub fmod_algorithms: bool,
    /// Mechanism 2: NVIDIA-like `ceil` loses tiny positive values.
    pub ceil_tiny: bool,
    /// Mechanism 3: from-scratch NVIDIA transcendental kernels (last-ULP
    /// disagreements with the AMD/std kernels).
    pub transcendental_kernels: bool,
    /// Mechanism 4+5: fast-math intrinsic substitution (`__sinf` vs
    /// `V_SIN_F32`, pow special-case table dropped, …).
    pub fast_intrinsics: bool,
    /// Mechanism 6: vendor-asymmetric FTZ under fast math.
    pub ftz_fast_math: bool,
}

impl QuirkSet {
    /// Every divergence mechanism enabled (the paper's reality).
    pub fn all() -> Self {
        QuirkSet {
            fmod_algorithms: true,
            ceil_tiny: true,
            transcendental_kernels: true,
            fast_intrinsics: true,
            ftz_fast_math: true,
        }
    }

    /// Every mechanism disabled (devices become bit-identical).
    pub fn none() -> Self {
        QuirkSet {
            fmod_algorithms: false,
            ceil_tiny: false,
            transcendental_kernels: false,
            fast_intrinsics: false,
            ftz_fast_math: false,
        }
    }
}

impl Default for QuirkSet {
    fn default() -> Self {
        QuirkSet::all()
    }
}

/// A simulated GPU: vendor kind + divergence-mechanism configuration.
#[derive(Debug, Clone)]
pub struct Device {
    /// Vendor the device models.
    pub kind: DeviceKind,
    /// Active divergence mechanisms.
    pub quirks: QuirkSet,
    math_nv: NvMathLib,
    math_amd: AmdMathLib,
}

impl Device {
    /// A device with all divergence mechanisms active.
    pub fn new(kind: DeviceKind) -> Self {
        Self::with_quirks(kind, QuirkSet::all())
    }

    /// A device with a custom mechanism set (ablation).
    pub fn with_quirks(kind: DeviceKind, quirks: QuirkSet) -> Self {
        Device { kind, quirks, math_nv: NvMathLib { quirks }, math_amd: AmdMathLib { quirks } }
    }

    /// The vendor math library this device links kernels against.
    pub fn mathlib(&self) -> &dyn MathLib {
        match self.kind {
            DeviceKind::NvidiaLike => &self.math_nv,
            DeviceKind::AmdLike => &self.math_amd,
        }
    }

    /// The floating-point environment for a given fast-math setting.
    ///
    /// Both vendors are IEEE-compliant for the accurate paths. Under fast
    /// math the NVIDIA-like device flushes FP32 subnormals in both
    /// directions (`-ftz=true` is implied by `--use_fast_math`); the
    /// AMD-like device flushes results only. FP64 never flushes on either.
    pub fn fp_env(&self, fast_math: bool) -> FpEnv {
        if !fast_math || !self.quirks.ftz_fast_math {
            return FpEnv::ieee();
        }
        match self.kind {
            DeviceKind::NvidiaLike => FpEnv { ftz32: FtzMode::FLUSH, ftz64: FtzMode::IEEE },
            DeviceKind::AmdLike => FpEnv { ftz32: FtzMode::FTZ_ONLY, ftz64: FtzMode::IEEE },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mathlib::MathFunc;

    #[test]
    fn devices_expose_vendor_mathlibs() {
        let nv = Device::new(DeviceKind::NvidiaLike);
        let amd = Device::new(DeviceKind::AmdLike);
        assert_eq!(nv.mathlib().name(), "libdevice-sim");
        assert_eq!(amd.mathlib().name(), "ocml-sim");
    }

    #[test]
    fn quirkless_devices_agree_on_everything_sampled() {
        let nv = Device::with_quirks(DeviceKind::NvidiaLike, QuirkSet::none());
        let amd = Device::with_quirks(DeviceKind::AmdLike, QuirkSet::none());
        let args = [0.5f64, 1.5955e-125, 1e300, -3.3, 1e-310];
        for f in MathFunc::ALL {
            for &a in &args {
                for &b in &args {
                    let x = nv.mathlib().call_f64(f, a, b);
                    let y = amd.mathlib().call_f64(f, a, b);
                    assert!(
                        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                        "{f}({a},{b}): nv={x} amd={y}"
                    );
                }
            }
        }
    }

    #[test]
    fn quirky_devices_diverge_on_case_study_inputs() {
        let nv = Device::new(DeviceKind::NvidiaLike);
        let amd = Device::new(DeviceKind::AmdLike);
        // case study 1 operands
        let (x, y) = (1.5917195493481116e289, 1.5793e-307);
        assert_ne!(
            nv.mathlib().call_f64(MathFunc::Fmod, x, y).to_bits(),
            amd.mathlib().call_f64(MathFunc::Fmod, x, y).to_bits()
        );
        // case study 2 operand
        assert_eq!(nv.mathlib().call_f64(MathFunc::Ceil, 1.5955e-125, 0.0), 0.0);
        assert_eq!(amd.mathlib().call_f64(MathFunc::Ceil, 1.5955e-125, 0.0), 1.0);
    }

    #[test]
    fn fp_env_is_ieee_without_fast_math() {
        for kind in DeviceKind::ALL {
            let d = Device::new(kind);
            assert_eq!(d.fp_env(false), FpEnv::ieee());
        }
    }

    #[test]
    fn fp_env_fast_math_is_vendor_asymmetric() {
        let nv = Device::new(DeviceKind::NvidiaLike).fp_env(true);
        let amd = Device::new(DeviceKind::AmdLike).fp_env(true);
        assert_eq!(nv.ftz32, FtzMode::FLUSH);
        assert_eq!(amd.ftz32, FtzMode::FTZ_ONLY);
        assert_ne!(nv.ftz32, amd.ftz32);
        // FP64 never flushes
        assert_eq!(nv.ftz64, FtzMode::IEEE);
        assert_eq!(amd.ftz64, FtzMode::IEEE);
    }

    #[test]
    fn ftz_quirk_off_keeps_ieee_under_fast_math() {
        let mut q = QuirkSet::all();
        q.ftz_fast_math = false;
        let d = Device::with_quirks(DeviceKind::NvidiaLike, q);
        assert_eq!(d.fp_env(true), FpEnv::ieee());
    }
}
