//! The correctness gate: golden digests, and the tally of attempted
//! and failed units behind `fail_ratio`.

use std::collections::BTreeMap;

use crate::PassOut;

/// Committed digests of one workload's unit outputs.
#[derive(Debug, Default, PartialEq)]
pub struct Golden {
    /// The seed the digests were made with; `None` when the workload's
    /// outputs do not depend on its seed.
    seed: Option<u64>,
    digests: BTreeMap<String, u64>,
}

impl Golden {
    /// Parses a golden file: `#` comments, one `seed <n>` or
    /// `seed any` line, then `<unit key> <16 hex digits>` lines.
    pub fn parse(text: &str) -> Result<Golden, String> {
        let mut golden = Golden::default();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("golden line {}: `{line}`", i + 1);
            let (key, value) = line.split_once(' ').ok_or_else(bad)?;
            if key == "seed" {
                golden.seed = match value {
                    "any" => None,
                    n => Some(n.parse().map_err(|_| bad())?),
                };
            } else {
                let digest = u64::from_str_radix(value, 16).map_err(|_| bad())?;
                golden.digests.insert(key.to_string(), digest);
            }
        }
        Ok(golden)
    }

    /// The committed digest of unit `key` at `seed`, if there is one.
    fn get(&self, seed: u64, key: &str) -> Option<u64> {
        if self.seed.is_some_and(|s| s != seed) {
            return None;
        }
        self.digests.get(key).copied()
    }
}

/// Everything a run attempted, what failed, and the unit digests.
#[derive(Debug, Default)]
pub struct Tally {
    /// Units and invariant checks attempted.
    pub attempted: usize,
    /// Why each failed unit failed.
    pub failures: Vec<String>,
    digests: Vec<(String, u64)>,
}

impl Tally {
    /// Counts a pass's units, failures and digests.
    pub fn absorb(&mut self, out: PassOut) {
        self.attempted += out.unit_ms.len();
        self.failures.extend(out.failures);
        self.digests.extend(out.digests);
    }

    /// Counts one invariant check.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failures.push(why);
        }
    }

    /// Fails every digest that differs from the golden one or from
    /// another run of the same unit. Returns the digests no golden
    /// entry covers.
    pub fn verify(&mut self, golden: &Golden, seed: u64) -> BTreeMap<String, u64> {
        let mut seen: BTreeMap<String, u64> = BTreeMap::new();
        let mut unverified = BTreeMap::new();
        for (key, digest) in std::mem::take(&mut self.digests) {
            if let Some(&first) = seen.get(&key) {
                if first != digest {
                    self.failures.push(format!(
                        "{key}: digest {digest:016x} differs from an earlier run's {first:016x}"
                    ));
                }
            }
            match golden.get(seed, &key) {
                Some(g) if g != digest => self
                    .failures
                    .push(format!("{key}: digest {digest:016x}, golden {g:016x}")),
                Some(_) => {}
                None => {
                    unverified.entry(key.clone()).or_insert(digest);
                }
            }
            seen.entry(key).or_insert(digest);
        }
        unverified
    }

    /// Failed units over attempted units.
    pub fn fail_ratio(&self) -> f64 {
        self.failures.len() as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(digests: &[(&str, u64)]) -> PassOut {
        PassOut {
            unit_ms: vec![1.0; digests.len()],
            digests: digests.iter().map(|&(k, d)| (k.to_string(), d)).collect(),
            failures: Vec::new(),
        }
    }

    const GOLDEN: &str =
        "# test\nseed 7\nfig10/GPT-3/Fred-D 00000000000000ff\np0/u1 0000000000000001\n";

    #[test]
    fn golden_files_parse_and_reject_garbage() {
        let g = Golden::parse(GOLDEN).unwrap();
        assert_eq!(g.get(7, "fig10/GPT-3/Fred-D"), Some(0xff));
        assert_eq!(g.get(8, "fig10/GPT-3/Fred-D"), None, "another seed");
        assert_eq!(g.get(7, "nope"), None);
        let any = Golden::parse("seed any\nk 10\n").unwrap();
        assert_eq!(any.get(12345, "k"), Some(16));
        assert!(Golden::parse("k zz\n").is_err());
        assert!(Golden::parse("lonely\n").is_err());
        assert!(Golden::parse("seed x\n").is_err());
    }

    #[test]
    fn matching_digests_pass() {
        let g = Golden::parse(GOLDEN).unwrap();
        let mut t = Tally::default();
        t.absorb(pass(&[("fig10/GPT-3/Fred-D", 0xff), ("p0/u1", 1)]));
        assert!(t.verify(&g, 7).is_empty());
        assert_eq!(t.fail_ratio(), 0.0);
        assert_eq!(t.attempted, 2);
    }

    #[test]
    fn a_flipped_golden_digest_yields_a_failure() {
        let g = Golden::parse(GOLDEN).unwrap();
        let mut t = Tally::default();
        t.absorb(pass(&[("fig10/GPT-3/Fred-D", 0xff ^ 0x10), ("p0/u1", 1)]));
        t.verify(&g, 7);
        assert_eq!(t.failures.len(), 1);
        assert!(t.fail_ratio() > 0.0);
        assert_eq!(t.fail_ratio(), 0.5);
    }

    #[test]
    fn unknown_seeds_are_unverified_but_must_still_repeat() {
        let g = Golden::parse(GOLDEN).unwrap();
        let mut t = Tally::default();
        t.absorb(pass(&[("p0/u1", 5)]));
        t.absorb(pass(&[("p0/u1", 5)]));
        let unverified = t.verify(&g, 99);
        assert_eq!(unverified, BTreeMap::from([("p0/u1".to_string(), 5)]));
        assert_eq!(t.fail_ratio(), 0.0);
        t.absorb(pass(&[("p0/u1", 5), ("p0/u1", 6)]));
        t.verify(&g, 99);
        assert_eq!(
            t.failures.len(),
            1,
            "a unit that changes between runs fails"
        );
    }

    #[test]
    fn failed_checks_count_as_attempts() {
        let mut t = Tally::default();
        t.check(Ok(()));
        t.check(Err("cluster of one diverged".into()));
        assert_eq!((t.attempted, t.failures.len()), (2, 1));
    }
}
