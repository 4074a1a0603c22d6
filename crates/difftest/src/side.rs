//! Named sides of the N-way comparison plane.
//!
//! The campaign historically compared exactly two sides identified by the
//! string literals `"nvcc"` and `"hipcc"` scattered across the metadata,
//! journal, and report layers. [`Side`] names every executor that can
//! contribute results — the two vendor toolchains plus the double-double
//! ground-truth reference — and [`SideKey`] pairs a side with the
//! optimization level it ran at.
//!
//! Both types serialize to the exact string forms the v1 artifacts used
//! (`"nvcc"` for a side, `"nvcc:O0"` for a key), so v1 metadata files and
//! journals load unchanged under the typed schema.

use gpucc::pipeline::{OptLevel, Toolchain};
use serde::{Deserialize, Serialize};

/// One executor in the comparison plane.
///
/// The derived `Ord` (declaration order: vendors first, reference last)
/// is the canonical ordering used when merging shard metadata, so merged
/// reports are byte-identical regardless of worker completion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum Side {
    /// The NVIDIA-like toolchain on the NVIDIA-like device.
    Nvcc,
    /// The AMD-like toolchain on the AMD-like device.
    Hipcc,
    /// The strict extended-precision ground-truth executor
    /// (`gpucc::refexec`): double-double evaluation of the O0 IR with a
    /// single final rounding.
    Reference,
}

impl Side {
    /// Every side, vendors first.
    pub const ALL: [Side; 3] = [Side::Nvcc, Side::Hipcc, Side::Reference];

    /// The two vendor sides every campaign must run for completeness.
    pub const VENDORS: [Side; 2] = [Side::Nvcc, Side::Hipcc];

    /// Stable lowercase name, identical to the historical string literal.
    pub fn name(self) -> &'static str {
        match self {
            Side::Nvcc => "nvcc",
            Side::Hipcc => "hipcc",
            Side::Reference => "reference",
        }
    }

    /// The vendor toolchain behind this side (`None` for the reference,
    /// which has no toolchain: it evaluates the strict O0 IR directly).
    pub fn toolchain(self) -> Option<Toolchain> {
        match self {
            Side::Nvcc => Some(Toolchain::Nvcc),
            Side::Hipcc => Some(Toolchain::Hipcc),
            Side::Reference => None,
        }
    }
}

impl From<Toolchain> for Side {
    fn from(tc: Toolchain) -> Side {
        match tc {
            Toolchain::Nvcc => Side::Nvcc,
            Toolchain::Hipcc => Side::Hipcc,
        }
    }
}

impl std::fmt::Display for Side {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Side {
    type Err = String;

    fn from_str(s: &str) -> Result<Side, String> {
        Side::ALL
            .into_iter()
            .find(|side| side.name() == s)
            .ok_or_else(|| format!("unknown side {s:?}"))
    }
}

/// A side at a specific optimization level: the key one unit of results
/// is stored and journaled under.
///
/// Serializes as the `"{side}:{level}"` string (`"nvcc:O0"`,
/// `"hipcc:O3_FM"`, `"reference:O0"`) — the same wire form the v1
/// journal's free-form `side` strings used, so old journals parse
/// directly into typed keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SideKey {
    /// Which executor produced the results.
    pub side: Side,
    /// The optimization level it ran at (always `O0` for the reference).
    pub level: OptLevel,
}

impl SideKey {
    /// Key for `side` at `level`.
    pub fn new(side: impl Into<Side>, level: OptLevel) -> SideKey {
        SideKey { side: side.into(), level }
    }

    /// The single key the ground-truth results live under: the reference
    /// evaluates the strict O0 IR once per test, independent of which
    /// vendor levels ran (nvcc and hipcc agree bit-for-bit at O0 on
    /// plain sources, so one truth serves every level's comparison).
    pub const REFERENCE: SideKey = SideKey { side: Side::Reference, level: OptLevel::O0 };
}

impl std::fmt::Display for SideKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.side, self.level.label())
    }
}

impl std::str::FromStr for SideKey {
    type Err = String;

    fn from_str(s: &str) -> Result<SideKey, String> {
        let (side, level) = s
            .split_once(':')
            .ok_or_else(|| format!("side key {s:?} is not of the form \"side:LEVEL\""))?;
        Ok(SideKey { side: side.parse()?, level: level.parse()? })
    }
}

impl Serialize for SideKey {
    fn serialize(&self, w: &mut serde::Writer) {
        w.str(&self.to_string());
    }
}

impl Deserialize for SideKey {
    fn deserialize(r: &mut serde::Reader<'_>) -> serde::Result<SideKey> {
        r.string()?.parse().map_err(|e: String| r.error(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_the_historical_string_literals() {
        assert_eq!(Side::Nvcc.name(), "nvcc");
        assert_eq!(Side::Hipcc.name(), "hipcc");
        assert_eq!(Side::Reference.name(), "reference");
    }

    #[test]
    fn serde_is_wire_compatible_with_v1_side_strings() {
        // v1 stored sides_run as plain strings; the enum must produce
        // and accept the identical JSON
        assert_eq!(serde_json::to_string(&Side::Nvcc).unwrap(), "\"nvcc\"");
        assert_eq!(
            serde_json::from_str::<Vec<Side>>("[\"nvcc\",\"hipcc\"]").unwrap(),
            vec![Side::Nvcc, Side::Hipcc]
        );
        assert_eq!(serde_json::to_string(&Side::Reference).unwrap(), "\"reference\"");
    }

    #[test]
    fn side_key_roundtrips_through_the_v1_string_form() {
        for side in Side::ALL {
            for level in OptLevel::ALL {
                let k = SideKey::new(side, level);
                let s = k.to_string();
                assert_eq!(s.parse::<SideKey>().unwrap(), k, "{s}");
                let json = serde_json::to_string(&k).unwrap();
                assert_eq!(json, format!("\"{s}\""));
                assert_eq!(serde_json::from_str::<SideKey>(&json).unwrap(), k);
            }
        }
    }

    #[test]
    fn v1_journal_side_strings_parse() {
        assert_eq!("nvcc:O0".parse::<SideKey>().unwrap(), SideKey::new(Side::Nvcc, OptLevel::O0));
        assert_eq!(
            "hipcc:O3_FM".parse::<SideKey>().unwrap(),
            SideKey::new(Side::Hipcc, OptLevel::O3Fm)
        );
        assert!("nvcc".parse::<SideKey>().is_err(), "missing level");
        assert!("gcc:O0".parse::<SideKey>().is_err(), "unknown side");
        assert!("nvcc:O9".parse::<SideKey>().is_err(), "unknown level");
    }

    #[test]
    fn ordering_is_vendors_first_then_reference() {
        let mut v = vec![Side::Reference, Side::Hipcc, Side::Nvcc];
        v.sort();
        assert_eq!(v, vec![Side::Nvcc, Side::Hipcc, Side::Reference]);
    }

    #[test]
    fn toolchain_mapping_is_total_for_vendors() {
        assert_eq!(Side::Nvcc.toolchain(), Some(Toolchain::Nvcc));
        assert_eq!(Side::Hipcc.toolchain(), Some(Toolchain::Hipcc));
        assert_eq!(Side::Reference.toolchain(), None);
        for tc in Toolchain::ALL {
            assert_eq!(Side::from(tc).toolchain(), Some(tc));
        }
    }
}
