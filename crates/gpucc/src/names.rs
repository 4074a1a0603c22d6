//! Interned telemetry names.
//!
//! The executors record their runs, steps and time and tally math calls
//! and IEEE exceptions per execution, and the compile pipeline records
//! rewrites and time per pass per compile.
//! Their metric names are built and interned here once, on first use,
//! so the hot paths hand `obs` a metric [`Id`] — an array index — instead
//! of `format!`ting a fresh `String` or looking a name up per record.

use crate::pipeline::{OptLevel, Toolchain};
use fpcore::exceptions::FpException;
use gpusim::mathlib::MathFunc;
use gpusim::DeviceKind;
use obs::Id;
use std::sync::OnceLock;
use std::time::Instant;

/// Every stage name [`crate::pipeline`] records a `PassStat` under, in
/// pipeline order: the front-end reassociation, then the IR passes.
pub(crate) const PASS_NAMES: [&str; 7] =
    ["reassoc", "const-fold", "finite-math", "recip", "fma-contract", "cse", "dce"];

/// One executor's per-run metric ids (`{tier}.execs`, `{tier}.ops`,
/// `{tier}.execns`, `{tier}.nsperop`, `{tier}.mathcall.{vendor}.{fn}` and
/// `{tier}.fpexc.{flag}`) and the trace event a timed vendor run emits.
pub(crate) struct ExecNames {
    /// The `{tier}.exec` trace event (the truth emits none).
    pub(crate) event: &'static str,
    execs: Id,
    ops: Id,
    execns: Id,
    nsperop: Id,
    mathcall: [[Id; MathFunc::COUNT]; 2],
    fpexc: [Id; 5],
}

impl ExecNames {
    fn build(tier: &str, event: &'static str) -> ExecNames {
        let id = |name: &str| obs::id::intern(&format!("{tier}.{name}"));
        ExecNames {
            event,
            execs: id("execs"),
            ops: id("ops"),
            execns: id("execns"),
            nsperop: id("nsperop"),
            mathcall: DeviceKind::ALL.map(|d| {
                MathFunc::ALL.map(|f| id(&format!("mathcall.{}.{}", d.short(), f.c_name())))
            }),
            fpexc: FpException::ALL.map(|e| id(&format!("fpexc.{e}"))),
        }
    }

    /// The tree walk's vendor-domain names (`interp.*`).
    pub(crate) fn interp() -> &'static ExecNames {
        static NAMES: OnceLock<ExecNames> = OnceLock::new();
        NAMES.get_or_init(|| ExecNames::build("interp", "interp.exec"))
    }

    /// The bytecode vm's names (`vm.*`).
    pub(crate) fn vm() -> &'static ExecNames {
        static NAMES: OnceLock<ExecNames> = OnceLock::new();
        NAMES.get_or_init(|| ExecNames::build("vm", "vm.exec"))
    }

    /// The double-double truth's names (`reference.*`): a truth run
    /// records only the four per-run metrics.
    pub(crate) fn reference() -> &'static ExecNames {
        static NAMES: OnceLock<ExecNames> = OnceLock::new();
        NAMES.get_or_init(|| ExecNames::build("reference", "reference.exec"))
    }

    /// Record one finished run of `steps` instructions: `execs` and
    /// `ops`, and when it was timed from `t`, its nanoseconds in `execns`
    /// and `nsperop`. Returns those nanoseconds.
    pub(crate) fn record_run(&self, steps: u64, t: Option<Instant>) -> Option<u64> {
        obs::add_id(self.execs, 1);
        obs::add_id(self.ops, steps);
        let ns = t?.elapsed().as_nanos() as u64;
        obs::record_id(self.execns, ns);
        obs::record_id(self.nsperop, ns / steps.max(1));
        Some(ns)
    }

    /// Counter for calls of `f` on a `device` kind.
    pub(crate) fn mathcall(&self, device: DeviceKind, f: MathFunc) -> Id {
        self.mathcall[device as usize][f.index()]
    }

    /// Counter for executions that raised `e`.
    pub(crate) fn fpexc(&self, e: FpException) -> Id {
        self.fpexc[e as usize]
    }
}

/// The compile pipeline's per-pass ids
/// (`gpucc.rewrites.{toolchain}.{level}.{pass}` and
/// `gpucc.passns.{toolchain}.{level}.{pass}`), indexed by toolchain,
/// [`OptLevel::index`] and position in [`PASS_NAMES`].
pub(crate) struct PassNames {
    rewrites: [[[Id; 7]; 5]; 2],
    passns: [[[Id; 7]; 5]; 2],
}

impl PassNames {
    /// The table, built on first use.
    pub(crate) fn get() -> &'static PassNames {
        static NAMES: OnceLock<PassNames> = OnceLock::new();
        NAMES.get_or_init(|| {
            let table = |kind: &str| {
                Toolchain::ALL.map(|tc| {
                    OptLevel::ALL.map(|l| {
                        PASS_NAMES.map(|p| {
                            obs::id::intern(&format!(
                                "gpucc.{kind}.{}.{}.{p}",
                                tc.name(),
                                l.label()
                            ))
                        })
                    })
                })
            };
            PassNames { rewrites: table("rewrites"), passns: table("passns") }
        })
    }

    /// `(rewrites counter, nanos histogram)` for one pass of one
    /// compile, or `None` for a stage missing from [`PASS_NAMES`].
    pub(crate) fn of(&self, tc: Toolchain, level: OptLevel, pass: &str) -> Option<(Id, Id)> {
        let p = PASS_NAMES.iter().position(|n| *n == pass)?;
        let (t, l) = (tc as usize, level.index());
        Some((self.rewrites[t][l][p], self.passns[t][l][p]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_names_equal_the_formatted_names_byte_for_byte() {
        let tiers = [
            (ExecNames::interp(), "interp"),
            (ExecNames::vm(), "vm"),
            (ExecNames::reference(), "reference"),
        ];
        for (names, tier) in tiers {
            assert_eq!(names.event, format!("{tier}.exec"));
            let per_run = [names.execs, names.ops, names.execns, names.nsperop];
            for (id, metric) in per_run.into_iter().zip(["execs", "ops", "execns", "nsperop"]) {
                assert_eq!(id.name(), format!("{tier}.{metric}"));
            }
            for d in DeviceKind::ALL {
                for f in MathFunc::ALL {
                    let vendor = d.short();
                    assert_eq!(
                        names.mathcall(d, f).name(),
                        format!("{tier}.mathcall.{vendor}.{}", f.c_name())
                    );
                }
            }
            for e in FpException::ALL {
                assert_eq!(names.fpexc(e).name(), format!("{tier}.fpexc.{e}"));
            }
        }
    }

    #[test]
    fn pass_names_equal_the_formatted_names_byte_for_byte() {
        let names = PassNames::get();
        for tc in Toolchain::ALL {
            for l in OptLevel::ALL {
                for p in PASS_NAMES {
                    let key = format!("{}.{}.{p}", tc.name(), l.label());
                    let (rewrites, passns) = names.of(tc, l, p).expect("interned");
                    assert_eq!(rewrites.name(), format!("gpucc.rewrites.{key}"));
                    assert_eq!(passns.name(), format!("gpucc.passns.{key}"));
                }
            }
        }
        assert_eq!(names.of(Toolchain::Nvcc, OptLevel::O0, "no-such-pass"), None);
    }

    #[test]
    fn every_pipeline_stage_has_an_interned_name() {
        use progen::gen::generate_program;
        use progen::grammar::GenConfig;
        use progen::Precision;
        let program = generate_program(&GenConfig::varity_default(Precision::F64), 7, 0);
        for tc in Toolchain::ALL {
            for l in OptLevel::ALL {
                for hipified in [false, true] {
                    let (_, stats) = crate::pipeline::compile_with_stats(&program, tc, l, hipified);
                    for ps in &stats.passes {
                        assert!(PASS_NAMES.contains(&ps.name), "{} not interned", ps.name);
                    }
                }
            }
        }
    }
}
