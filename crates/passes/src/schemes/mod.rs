//! The pluggable detection-scheme registry.
//!
//! Every compile-time property of a scheme — display name, CLI
//! aliases, which module transform runs, the placement policy handed
//! to the scheduler, how many copies of each protected computation
//! exist at runtime, whether a detected strike is *corrected* rather
//! than merely reported — lives in one [`SchemeDescriptor`] row here.
//! The `Scheme` methods in `pipeline.rs`, the staged-compile ED keys
//! in `stages.rs`, and every `--scheme` CLI site consult this table
//! instead of hardwiring per-scheme `match`es, so adding a scheme is
//! one new row plus its transform.
//!
//! The six production rows:
//!
//! | scheme | transform    | copies | corrects | detects via          |
//! |--------|--------------|--------|----------|----------------------|
//! | NOED   | none         | 1      | no       | nothing (baseline)   |
//! | SCED   | dup+compare  | 2      | no       | `cmp.ne`+`br.detect` |
//! | DCED   | dup+compare  | 2      | no       | `cmp.ne`+`br.detect` |
//! | CASTED | dup+compare  | 2      | no       | `cmp.ne`+`br.detect` |
//! | TMRED  | triplicate   | 3      | **yes**  | majority `vote`      |
//! | RBED   | none         | 1      | no       | replay digest        |
//!
//! TMRED is the ELZAR-style recovery scheme: at every site the paper's
//! schemes would check, it votes the original register against two
//! independently renamed copies and writes the majority back, so a
//! single-lane strike is repaired in place (`Outcome::Corrected`).
//! RBED is the RepTFD-style replay scheme: the code is untouched
//! (NOED-identical schedule); the fault campaign accumulates an FNV-64
//! digest of retired results per golden-trace chunk and detects on
//! digest divergence (`CampaignConfig::replay_detect`).

mod tmr;

pub use tmr::tmr_transform;

use casted_ir::{Cluster, Module};

use crate::errordetect::{replicate, EdOptions, EdStats};
use crate::pipeline::Scheme;
use crate::schedule::Placement;

/// Which compile-time transform a scheme runs over the module.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Transform {
    /// Code left untouched (NOED baseline; RBED detects at the
    /// campaign layer from retired-result digests instead).
    None,
    /// The paper's Algorithm 1: duplicate + compare + detect-branch.
    DupCompare,
    /// Triplicate + majority vote ([`tmr_transform`]).
    Tmr,
}

impl Transform {
    /// Redundant streams the replication pass (`crate::errordetect`)
    /// emits: 0 leaves the code untouched, 1 duplicates and compares,
    /// 2 triplicates and votes.
    pub fn redundant_streams(self) -> usize {
        match self {
            Transform::None => 0,
            Transform::DupCompare => 1,
            Transform::Tmr => 2,
        }
    }

    /// Run this transform over `module`'s entry function — the one
    /// dispatch site of the protection passes. `None` for
    /// [`Transform::None`], which leaves the module untouched.
    pub fn apply(self, module: &mut Module, opts: &EdOptions) -> Option<EdStats> {
        match self.redundant_streams() {
            0 => None,
            streams => Some(replicate(module, opts, streams)),
        }
    }

    /// Stable tag mixed into the staged-compile ED artifact key.
    /// `None = 0` and `DupCompare = 1` deliberately coincide with the
    /// historical `has_error_detection() as u8` byte, so pre-registry
    /// ED artifacts (and the pinned golden stage keys) stay valid; it
    /// also makes RBED share NOED's ED artifact, which is exactly
    /// right — both leave the module untouched.
    pub fn tag(self) -> u8 {
        match self {
            Transform::None => 0,
            Transform::DupCompare => 1,
            Transform::Tmr => 2,
        }
    }
}

/// One registry row: everything the pipeline, the staged compiler and
/// the CLIs need to know about a scheme without matching on it.
#[derive(Clone, Copy, Debug)]
pub struct SchemeDescriptor {
    /// The scheme this row describes.
    pub scheme: Scheme,
    /// Display name as used in the paper's figures (and in CSVs).
    pub name: &'static str,
    /// Accepted `--scheme` spellings besides `name` (all matching is
    /// case-insensitive).
    pub aliases: &'static [&'static str],
    /// Module transform the back end runs.
    pub transform: Transform,
    /// Copies of each protected computation at runtime (1 = none,
    /// 2 = duplicate-and-compare, 3 = TMR).
    pub replication_factor: u8,
    /// Whether a detected single-lane strike is repaired in place
    /// (golden output preserved, `Outcome::Corrected`) rather than
    /// merely reported.
    pub corrects: bool,
    /// Whether fault campaigns must run the replay-digest detector
    /// (`CampaignConfig::replay_detect`) for this scheme.
    pub replay_detect: bool,
    /// Placement policy handed to the scheduler.
    pub placement: Placement,
    /// Per-scheme check-emission counter (static, so recording never
    /// allocates).
    pub checks_counter: &'static str,
}

/// The registry, in presentation order: the paper's four schemes
/// first, then the recovery-capable extensions.
pub const REGISTRY: [SchemeDescriptor; 6] = [
    SchemeDescriptor {
        scheme: Scheme::Noed,
        name: "NOED",
        aliases: &["none"],
        transform: Transform::None,
        replication_factor: 1,
        corrects: false,
        replay_detect: false,
        placement: Placement::AllOn(Cluster::MAIN),
        checks_counter: "passes.ed.checks.noed",
    },
    SchemeDescriptor {
        scheme: Scheme::Sced,
        name: "SCED",
        aliases: &["single"],
        transform: Transform::DupCompare,
        replication_factor: 2,
        corrects: false,
        replay_detect: false,
        placement: Placement::AllOn(Cluster::MAIN),
        checks_counter: "passes.ed.checks.sced",
    },
    SchemeDescriptor {
        scheme: Scheme::Dced,
        name: "DCED",
        aliases: &["dual"],
        transform: Transform::DupCompare,
        replication_factor: 2,
        corrects: false,
        replay_detect: false,
        placement: Placement::ByStream,
        checks_counter: "passes.ed.checks.dced",
    },
    SchemeDescriptor {
        scheme: Scheme::Casted,
        name: "CASTED",
        aliases: &["adaptive"],
        transform: Transform::DupCompare,
        replication_factor: 2,
        corrects: false,
        replay_detect: false,
        placement: Placement::Adaptive,
        checks_counter: "passes.ed.checks.casted",
    },
    SchemeDescriptor {
        scheme: Scheme::Tmred,
        name: "TMRED",
        aliases: &["tmr"],
        transform: Transform::Tmr,
        replication_factor: 3,
        corrects: true,
        replay_detect: false,
        placement: Placement::Adaptive,
        checks_counter: "passes.ed.checks.tmred",
    },
    SchemeDescriptor {
        scheme: Scheme::Rbed,
        name: "RBED",
        aliases: &["replay"],
        transform: Transform::None,
        replication_factor: 1,
        corrects: false,
        replay_detect: true,
        placement: Placement::AllOn(Cluster::MAIN),
        checks_counter: "passes.ed.checks.rbed",
    },
];

/// The registry row for `scheme`.
pub fn descriptor(scheme: Scheme) -> &'static SchemeDescriptor {
    REGISTRY
        .iter()
        .find(|d| d.scheme == scheme)
        .expect("every Scheme variant has a registry row")
}

/// Case-insensitive scheme lookup over names and aliases — the single
/// parser behind every `--scheme` CLI site.
pub fn parse(input: &str) -> Option<Scheme> {
    REGISTRY
        .iter()
        .find(|d| {
            d.name.eq_ignore_ascii_case(input)
                || d.aliases.iter().any(|a| a.eq_ignore_ascii_case(input))
        })
        .map(|d| d.scheme)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_scheme_exactly_once() {
        assert_eq!(REGISTRY.len(), Scheme::FULL.len());
        for (row, &s) in REGISTRY.iter().zip(Scheme::FULL.iter()) {
            assert_eq!(row.scheme, s, "registry order must match Scheme::FULL");
        }
    }

    #[test]
    fn parse_accepts_names_and_aliases_case_insensitively() {
        for row in &REGISTRY {
            for spelling in std::iter::once(&row.name).chain(row.aliases) {
                assert_eq!(parse(spelling), Some(row.scheme), "{spelling}");
                assert_eq!(parse(&spelling.to_uppercase()), Some(row.scheme));
                assert_eq!(parse(&spelling.to_lowercase()), Some(row.scheme));
            }
        }
        assert_eq!(parse("noed"), Some(Scheme::Noed));
        assert_eq!(parse("TMR"), Some(Scheme::Tmred));
        assert_eq!(parse("Replay"), Some(Scheme::Rbed));
        assert_eq!(parse(""), None);
        assert_eq!(parse("bogus"), None);
    }

    #[test]
    fn descriptor_metadata_is_consistent() {
        for row in &REGISTRY {
            // A correcting scheme must hold a strict majority of copies.
            if row.corrects {
                assert!(row.replication_factor >= 3);
            }
            // Replay detection implies untouched code, and vice versa
            // for the baseline: exactly the transform-free schemes have
            // replication factor 1.
            assert_eq!(
                row.replication_factor == 1,
                row.transform == Transform::None
            );
            assert_eq!(
                usize::from(row.replication_factor),
                row.transform.redundant_streams() + 1
            );
            assert_eq!(descriptor(row.scheme).name, row.name);
        }
        // Tag stability: the pre-registry key byte was
        // `has_error_detection() as u8`.
        assert_eq!(Transform::None.tag(), 0);
        assert_eq!(Transform::DupCompare.tag(), 1);
        assert_eq!(Transform::Tmr.tag(), 2);
    }
}
