//! Cross-configuration decomposition.
//!
//! The paper's comparison compounds two effects: a *compiler* difference
//! (nvcc vs hipcc pipelines) and a *math-library/device* difference
//! (libdevice vs OCML). On real clusters they cannot be separated — nvcc
//! binaries only run on NVIDIA GPUs. The simulator has no such constraint:
//! any toolchain's IR can execute against either device, so the four
//! configurations
//!
//! | | NVIDIA-like device | AMD-like device |
//! |---|---|---|
//! | **nvcc** | the paper's left side | library effect isolated |
//! | **hipcc** | compiler effect isolated | the paper's right side |
//!
//! can be compared pairwise, attributing each discrepancy to the compiler,
//! the library, or their interaction.

use crate::compare::compare_runs;
use gpucc::interp::{execute_prepared, prepare, ExecValue};
use gpucc::pipeline::{compile, OptLevel, Toolchain};
use gpusim::{Device, DeviceKind, QuirkSet};
use progen::ast::Program;
use progen::gen::generate_program;
use progen::grammar::GenConfig;
use progen::inputs::{generate_inputs, InputSet};

/// One (toolchain, device) execution configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Compiler pipeline.
    pub toolchain: Toolchain,
    /// Device the binary runs on.
    pub device: DeviceKind,
}

impl Config {
    /// Short label, e.g. `nvcc@NV`.
    pub fn label(&self) -> String {
        let dev = match self.device {
            DeviceKind::NvidiaLike => "NV",
            DeviceKind::AmdLike => "AMD",
        };
        format!("{}@{}", self.toolchain.name(), dev)
    }
}

/// The four configurations, in matrix order.
pub const ALL_CONFIGS: [Config; 4] = [
    Config { toolchain: Toolchain::Nvcc, device: DeviceKind::NvidiaLike },
    Config { toolchain: Toolchain::Nvcc, device: DeviceKind::AmdLike },
    Config { toolchain: Toolchain::Hipcc, device: DeviceKind::NvidiaLike },
    Config { toolchain: Toolchain::Hipcc, device: DeviceKind::AmdLike },
];

/// Pairwise discrepancy counts between all configurations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrossMatrix {
    /// `counts[i][j]` = discrepancies between `ALL_CONFIGS[i]` and `[j]`
    /// (symmetric, zero diagonal).
    pub counts: [[u64; 4]; 4],
    /// Comparisons per pair.
    pub comparisons: u64,
}

impl CrossMatrix {
    /// Discrepancies between two configurations.
    pub fn between(&self, a: Config, b: Config) -> u64 {
        let i = ALL_CONFIGS.iter().position(|c| *c == a).expect("known config");
        let j = ALL_CONFIGS.iter().position(|c| *c == b).expect("known config");
        self.counts[i][j]
    }

    /// The paper's compound comparison: `nvcc@NV` vs `hipcc@AMD`.
    pub fn compound(&self) -> u64 {
        self.counts[0][3]
    }

    /// Library effect in isolation: same compiler (`nvcc`), different
    /// devices.
    pub fn library_effect(&self) -> u64 {
        self.counts[0][1]
    }

    /// Compiler effect in isolation: different compilers, same device
    /// (`NVIDIA-like`).
    pub fn compiler_effect(&self) -> u64 {
        self.counts[0][2]
    }
}

/// Run the cross matrix over `n_programs` × `inputs_per_program` tests at
/// one optimization level.
pub fn run_cross_matrix(
    gen: &GenConfig,
    seed: u64,
    n_programs: usize,
    inputs_per_program: usize,
    level: OptLevel,
    quirks: QuirkSet,
) -> CrossMatrix {
    let per_test = crate::par::map(0..n_programs as u64, |index| {
        let program = generate_program(gen, seed, index);
        let inputs = generate_inputs(&program, seed, inputs_per_program);
        cross_one(&program, &inputs, level, quirks)
    });
    let mut m =
        CrossMatrix { comparisons: (n_programs * inputs_per_program) as u64, ..Default::default() };
    for t in per_test {
        for (row, trow) in m.counts.iter_mut().zip(&t) {
            for (cell, v) in row.iter_mut().zip(trow) {
                *cell += v;
            }
        }
    }
    m
}

fn cross_one(
    program: &Program,
    inputs: &[InputSet],
    level: OptLevel,
    quirks: QuirkSet,
) -> [[u64; 4]; 4] {
    // compile once per toolchain, run on both devices
    let kernels: Vec<_> = ALL_CONFIGS
        .iter()
        .map(|c| prepare(&compile(program, c.toolchain, level, false)).expect("well formed"))
        .collect();
    let devices: Vec<Device> =
        ALL_CONFIGS.iter().map(|c| Device::with_quirks(c.device, quirks)).collect();
    let mut counts = [[0u64; 4]; 4];
    for input in inputs {
        let results: Vec<Option<ExecValue>> = kernels
            .iter()
            .zip(&devices)
            .map(|(k, d)| execute_prepared(k, d, input).ok().map(|r| r.value))
            .collect();
        for i in 0..4 {
            for j in (i + 1)..4 {
                if let (Some(a), Some(b)) = (&results[i], &results[j]) {
                    if compare_runs(a, b).is_some() {
                        counts[i][j] += 1;
                        counts[j][i] += 1;
                    }
                }
            }
        }
    }
    counts
}

/// Render the matrix with the decomposition summary.
pub fn render_cross(m: &CrossMatrix, level: OptLevel) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "CROSS-CONFIGURATION MATRIX at {} ({} comparisons per pair)\n\n",
        level.label(),
        m.comparisons
    ));
    out.push_str(&format!("{:<12}", ""));
    for c in ALL_CONFIGS {
        out.push_str(&format!("{:>12}", c.label()));
    }
    out.push('\n');
    for (i, c) in ALL_CONFIGS.iter().enumerate() {
        out.push_str(&format!("{:<12}", c.label()));
        for j in 0..4 {
            if i == j {
                out.push_str(&format!("{:>12}", "-"));
            } else {
                out.push_str(&format!("{:>12}", m.counts[i][j]));
            }
        }
        out.push('\n');
    }
    out.push_str(&format!(
        "\ncompound (paper's comparison, nvcc@NV vs hipcc@AMD): {}\n\
         library effect alone (nvcc@NV vs nvcc@AMD):          {}\n\
         compiler effect alone (nvcc@NV vs hipcc@NV):          {}\n",
        m.compound(),
        m.library_effect(),
        m.compiler_effect()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use progen::Precision;

    fn matrix(level: OptLevel) -> CrossMatrix {
        run_cross_matrix(
            &GenConfig::varity_default(Precision::F64),
            2024,
            150,
            5,
            level,
            QuirkSet::all(),
        )
    }

    #[test]
    fn matrix_is_symmetric_with_zero_diagonal() {
        let m = matrix(OptLevel::O0);
        for i in 0..4 {
            assert_eq!(m.counts[i][i], 0);
            for j in 0..4 {
                assert_eq!(m.counts[i][j], m.counts[j][i]);
            }
        }
    }

    #[test]
    fn o0_divergence_is_purely_a_library_effect() {
        // at O0 the pipelines are identical, so same-device pairs agree
        // exactly and cross-device pairs carry all the divergence
        let m = matrix(OptLevel::O0);
        assert_eq!(m.compiler_effect(), 0, "identical O0 pipelines");
        assert!(m.library_effect() > 0, "math libraries differ");
        assert_eq!(
            m.compound(),
            m.library_effect(),
            "compound == library when the compiler contributes nothing"
        );
    }

    #[test]
    fn o3_adds_a_compiler_component() {
        let m = matrix(OptLevel::O3);
        assert!(m.compiler_effect() > 0, "contraction preferences differ at O3");
        // the compound effect carries at least the library component
        assert!(m.compound() >= m.library_effect());
    }

    #[test]
    fn render_includes_decomposition() {
        let m = matrix(OptLevel::O0);
        let s = render_cross(&m, OptLevel::O0);
        assert!(s.contains("nvcc@NV"));
        assert!(s.contains("hipcc@AMD"));
        assert!(s.contains("library effect"));
        assert!(s.contains("compiler effect"));
    }
}
