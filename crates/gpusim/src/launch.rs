//! Kernel launch configuration.
//!
//! Varity kernels compute a single scalar result, so the paper launches
//! them with a 1×1 grid; the launch configuration is still modelled because
//! the CUDA and HIP *launch syntaxes* differ (`<<<g,b>>>` vs
//! `hipLaunchKernelGGL`) and the HIPIFY translator must rewrite between
//! them.

use serde::Serialize;

/// Grid/block dimensions for a kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct LaunchConfig {
    /// Number of thread blocks.
    pub grid_dim: u32,
    /// Threads per block.
    pub block_dim: u32,
}

impl LaunchConfig {
    /// The single-thread launch Varity tests use.
    pub fn single_thread() -> Self {
        LaunchConfig { grid_dim: 1, block_dim: 1 }
    }

    /// Total threads in the launch.
    pub fn total_threads(&self) -> u64 {
        u64::from(self.grid_dim) * u64::from(self.block_dim)
    }
}

impl Default for LaunchConfig {
    fn default() -> Self {
        LaunchConfig::single_thread()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_launch() {
        let l = LaunchConfig::single_thread();
        assert_eq!(l.total_threads(), 1);
        assert_eq!(l, LaunchConfig::default());
    }

    #[test]
    fn total_threads_multiplies() {
        let l = LaunchConfig { grid_dim: 128, block_dim: 256 };
        assert_eq!(l.total_threads(), 32768);
    }
}
